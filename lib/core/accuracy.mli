(** Predicted-vs-simulated validation of the analytic tier.

    The closed-form predictor ({!Bw_analysis.Predict}, surfaced as the
    analytic tier of {!Bw_exec.Evaluate}) is only useful for triage if
    its error is characterised.  This module measures it:
    every registry workload is executed once, streamed into a set of
    machine variants, and each (workload, machine) cell compares the
    analytic prediction against the exact simulator.  The resulting
    rows feed the [predict] experiment table, the
    [bwc predict --check] CI smoke, and the error-envelope table in
    EXPERIMENTS.md. *)

(** One (workload, machine) comparison cell. *)
type row = {
  workload : string;
  machine : string;
  pred_seconds : float;
  sim_seconds : float;
  pred_memory_bytes : float;  (** analytic memory-bus traffic, in + out *)
  sim_memory_bytes : float;  (** exact simulator memory-bus traffic *)
}

(** The Origin2000 variant with a 256 KB L2 used by the figure drivers
    (laptop-scale arrays stay well beyond L2). *)
val origin_scaled : Bw_machine.Machine.t

(** The default validation machines: Origin2000, Exemplar, and
    {!origin_scaled} — three distinct geometries (two-level 2-way,
    single-level direct-mapped, and a capacity-starved two-level). *)
val default_machines : Bw_machine.Machine.t list

(** [measure_program ?machines ~name p] compares the analytic tier
    against the exact simulator for one program: one run of [p] streams
    into every machine ({!Bw_exec.Run.simulate_many}); one row per
    machine. *)
val measure_program :
  ?machines:Bw_machine.Machine.t list ->
  name:string ->
  Bw_ir.Ast.program ->
  row list

(** [measure ?scale ?machines ()] is {!measure_program} over every
    registry workload built at [scale] (default 1).  Rows are ordered
    workload-major in registry order. *)
val measure :
  ?scale:int -> ?machines:Bw_machine.Machine.t list -> unit -> row list

(** Median of |pred - sim| / sim over the rows' memory traffic. *)
val median_memory_rel_err : row list -> float

(** [check rows] returns the violations of the documented error
    envelope — one human-readable line per cell whose predicted /
    simulated memory or seconds ratio falls outside its bounds, plus one
    for the bound on the median relative memory error if exceeded.
    Empty means the envelope holds.  The bounds add headroom over the
    measured worst cases (see EXPERIMENTS.md for the measured table and
    the divergence classes: associativity conflicts, cross-phase reuse,
    runtime-computed loop structure). *)
val check : row list -> string list

(** Predicted-vs-simulated table with per-cell relative error. *)
val table : row list -> Table.t
