(** Tiered program evaluation: one entry point, three price points.

    Every search loop in the repo asks the same question — "how fast is
    this candidate on that machine?" — but not every caller can afford
    the same answer.  The tiers:

    - {b Analytic}: {!Bw_analysis.Predict}'s closed-form model.  No
      execution; the cost of a query does not depend on trip counts,
      only on the program's references times their loop depth.
      Carries the error envelope documented in EXPERIMENTS.md.
    - {b Reuse_pass}: one reuse-distance pass over a captured reference
      stream ({!Run.reuse_of_capture}), pricing every fully associative
      capacity at once.  Execution cost once per program, then
      milliseconds per machine; blind to associativity conflicts.
    - {b Exact}: the full simulator ({!Run.simulate} / {!Run.replay}).
      Bit-exact counters; pays for every reference on every machine.

    Results carry their {!fidelity} tag so downstream consumers (tables,
    CI gates, search heuristics) can tell a triage estimate from an
    oracle measurement.  Tier usage is counted in {!Bw_obs.Metrics}
    under [evaluate.tier.*]. *)

type fidelity = Analytic | Reuse_pass | Exact

val fidelity_name : fidelity -> string

(** How much the caller is willing to pay for the answer. *)
type budget =
  | Microseconds  (** analytic model only; never executes *)
  | Milliseconds  (** may execute once and run reuse passes *)
  | Unbounded  (** exact simulation *)

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

(** [of_program ~budget ~machine p] evaluates [p] at the cheapest tier
    the budget allows: [Microseconds] → Analytic, [Milliseconds] →
    Reuse_pass (executes once to capture), [Unbounded] → Exact. *)
val of_program :
  budget:budget -> machine:Bw_machine.Machine.t -> Bw_ir.Ast.program -> t

(** [of_capture ~budget ~machine c] prices an already-captured stream:
    [Microseconds] and [Milliseconds] → Reuse_pass (no re-execution),
    [Unbounded] → Exact replay. *)
val of_capture :
  budget:budget -> machine:Bw_machine.Machine.t -> Run.capture -> t

(** Wrap an exact simulation result. *)
val of_result : Run.result -> t

val pp : Format.formatter -> t -> unit
