(** Tiered program evaluation: one result type, three price points.

    Every search loop in the repo asks the same question — "how fast is
    this candidate on that machine?" — but not every caller can afford
    the same answer.  The tiers, one constructor each:

    - {b Analytic} ({!of_program}): {!Bw_analysis.Predict}'s closed-form
      model.  No execution; the cost of a query does not depend on trip
      counts, only on the program's references times their loop depth.
      Carries the error envelope documented in EXPERIMENTS.md.
    - {b Reuse_pass} ({!of_reuse}): reuse-distance profiles of one
      engine run's reference stream ({!Run.reuse_pass}, one profile per
      distinct last-level line size), pricing every fully associative
      capacity at once.  Execution cost once per program, then
      microseconds per machine; blind to associativity conflicts.
    - {b Exact} ({!of_result}): the full simulator ({!Run.simulate} /
      {!Run.replay}).  Bit-exact counters; pays for every reference on
      every machine.

    Results carry their {!fidelity} tag so downstream consumers (tables,
    CI gates, search heuristics) can tell a triage estimate from an
    oracle measurement.  Tier usage is counted in {!Bw_obs.Metrics}
    under [evaluate.tier.*]. *)

type fidelity = Analytic | Reuse_pass | Exact

val fidelity_name : fidelity -> string

(** One evaluation: machine-dependent cost estimates with a fidelity tag. *)
type t = {
  fidelity : fidelity;
  machine_name : string;
  flops : float;
  loads : float;
  stores : float;
  memory_bytes_in : float;
  memory_bytes_out : float;
  seconds : float;
  binding_resource : string;
}

(** Total memory-bus traffic, in + out. *)
val memory_bytes : t -> float

(** [of_program ~machine p] is the analytic tier: [p] priced by the
    closed-form model, never executed. *)
val of_program : machine:Bw_machine.Machine.t -> Bw_ir.Ast.program -> t

(** The block size the reuse tier profiles [machine] at: its last
    cache level's line size (32 bytes for a machine without caches). *)
val reuse_granularity : Bw_machine.Machine.t -> int

(** [of_reuse ~machine pass] is the reuse tier: [machine] priced from
    [pass]'s profile at {!reuse_granularity} [machine] and its load,
    store and flop counts, no re-execution.  A pass built from a
    capture ({!Run.reuse_of_capture}) prices the same.
    @raise Invalid_argument if [pass] has no profile at that
    granularity. *)
val of_reuse : machine:Bw_machine.Machine.t -> Run.reuse_pass -> t

(** The exact tier: wrap a simulation or replay result. *)
val of_result : Run.result -> t

val pp : Format.formatter -> t -> unit
