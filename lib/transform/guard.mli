(** Transactional supervisor for optimizer passes.

    The pipeline's historical contract ("semantic preservation is the
    test suite's burden") is inverted here: each stage runs inside a
    transaction that re-checks the IR, optionally validates semantics
    differentially on both execution engines, bounds the work with a
    fuel budget, and — on any failure — rolls the program back to the
    stage's input and moves on.  A guarded pipeline never crashes and
    never commits a stage whose output fails its checks; the worst case
    is the identity transformation.

    Per stage, in order:

    + the stage's fuel charge is taken from the shared budget
      (proportional to the program's statement count; validation trials
      charge extra).  An exhausted budget rolls the stage back without
      running it;
    + the fault-injection site [guard.<stage>] is crossed
      ({!Bw_obs.Fault}), so tests can force a raise or an IR corruption
      at exactly this point;
    + the transform runs; any exception it raises is confined to the
      stage;
    + {!Bw_ir.Check.check} re-runs on the output;
    + when linting is on, {!Bw_analysis.Preserve.lint} statically
      compares the stage's input and output (live-out stores, print
      counts, dependence signatures) and any violation rolls the stage
      back;
    + when validation is on, the stage's input and output programs both
      execute on the interpreter {e and} the compiled engine over
      deterministic inputs ([input_offset] varies per trial), and every
      live-out array and print must agree within an absolute/relative
      float tolerance of 1e-9.

    Outcomes are recorded as {!event}s, as [guard.<stage>.*] metrics
    (rollbacks / validation_failures / exceptions / check_failures /
    budget_exhausted / commits), and as one ["guard"] span per stage
    verdict when tracing is enabled. *)

type failure =
  | Check_failed of string
  | Lint_failed of string
      (** the {!Bw_analysis.Preserve} dependence-preservation lint
          flagged the stage's output *)
  | Validation_failed of string
  | Exception of string  (** includes injected faults *)
  | Budget_exhausted of string

type verdict = Committed | Rolled_back of failure

type event = { stage : string; verdict : verdict }

type config = {
  validate : int;
      (** differential-validation trials per stage; [0] disables
          validation (checks and exception confinement remain) *)
  lint : bool;
      (** statically lint each stage with {!Bw_analysis.Preserve.lint}
          (dropped live-out stores, changed print counts, new backward
          dependences) and roll back on any violation; purely static, no
          program execution *)
  rollback : bool;
      (** [false]: first failure raises {!Guard_failed} instead of
          rolling back (fail-fast mode for CI) *)
  fuel : int option;
      (** shared step budget for the whole pipeline; [None] = unbounded.
          One step is one IR statement processed; each validation trial
          charges four program executions. *)
}

(** [{ validate = 0; lint = false; rollback = true; fuel = None }] —
    the cost-free guard the default [Strategy.run] uses: exceptions are
    confined, outputs are checked, nothing is executed. *)
val default_config : config

(** [check_config c] is [Ok c], or a one-line [Error] when [c.validate]
    or [c.fuel] is negative.  The guard settings a user supplies —
    [bwc optimize]'s flags and serve's ["pipeline"] field — all pass
    through this one check. *)
val check_config : config -> (config, string) result

(** Raised (with all events so far, failure last) when a stage fails
    and [config.rollback] is [false]. *)
exception Guard_failed of event list

type t

val create : config -> t
val config : t -> config

(** Events recorded so far, in execution order. *)
val events : t -> event list

val rollbacks : t -> int

(** Fuel remaining, if the budget is bounded. *)
val fuel_left : t -> int option

(** [stage t ~name ~default f p] runs transform [f] on [p] under the
    transaction described above.  Returns [f p] on commit and
    [(p, default)] on rollback.
    @raise Guard_failed on failure when [config.rollback] is [false]. *)
val stage :
  t ->
  name:string ->
  default:'a ->
  (Bw_ir.Ast.program -> Bw_ir.Ast.program * 'a) ->
  Bw_ir.Ast.program ->
  Bw_ir.Ast.program * 'a

(** The corruption a [Corrupt] fault applies to a stage's output: the
    first assignment's right-hand side is offset by one, which
    type-checks but (for any live assignment) changes observable
    behaviour — exactly what differential validation must catch.
    [None] if the program contains no assignment to corrupt. *)
val corrupt_program : Bw_ir.Ast.program -> Bw_ir.Ast.program option

(** Differential validation as a standalone oracle: run [before] and
    [after] on both engines over [trials] deterministic input sets and
    compare observations within the guard's float tolerance.  [Ok ()]
    when everything agrees; [Error msg] names the first disagreement
    (or execution error). *)
val validate_pair :
  ?trials:int ->
  before:Bw_ir.Ast.program ->
  after:Bw_ir.Ast.program ->
  unit ->
  (unit, string) result

val pp_failure : Format.formatter -> failure -> unit
val pp_event : Format.formatter -> event -> unit

(** One line per stage plus a rollback/commit summary line. *)
val pp_report : Format.formatter -> event list -> unit
