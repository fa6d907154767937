(** The balance performance model (Section 2.2).

    Program balance: bytes of data transfer required per floating-point
    operation, at every memory-hierarchy boundary, measured by simulating
    the program.  Machine balance: bytes of transfer the machine supplies
    per peak flop, from its configuration.  Their ratio bounds CPU
    utilisation: a program demanding [r] times more bandwidth than the
    machine supplies runs at most [1/r] of peak. *)

type row = {
  per_boundary : (string * float) list;
      (** bytes/flop at each boundary, CPU side first *)
}

(** The balance of a simulation run, on the run's machine. *)
val of_result : Bw_exec.Run.result -> row

(** Measure a program's balance on the given machine's cache hierarchy:
    {!of_result} of one simulation. *)
val of_program :
  machine:Bw_machine.Machine.t -> Bw_ir.Ast.program -> row

(** A machine's supply row. *)
val of_machine : Bw_machine.Machine.t -> row

(** Demand/supply ratios per boundary.  The machine's boundary names must
    match the row's. *)
val ratios : row -> Bw_machine.Machine.t -> (string * float) list

(** Largest demand/supply ratio — the binding resource.  The reciprocal
    bounds CPU utilisation. *)
val worst_ratio : row -> Bw_machine.Machine.t -> string * float

(** Upper bound on achievable CPU utilisation, [1 / worst_ratio]
    (capped at 1). *)
val cpu_utilisation_bound : row -> Bw_machine.Machine.t -> float
