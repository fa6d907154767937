(** Differential oracle: does the optimizer preserve a program's
    observable behaviour?

    Each tested program runs through the full guarded pipeline
    ({!Bw_transform.Strategy.run_guarded}) and then original and
    optimized are executed on {e both} engines ({!Bw_exec.Interp.run}
    and {!Bw_exec.Compile.run}) over deterministic [read()] input
    streams ([?input_offset] varies per trial); live-out finals and
    prints must agree within tolerance
    ({!Bw_transform.Guard.validate_pair}).

    Counters [qa.fuzz.programs] / [qa.fuzz.failures] and one ["qa"]
    span per oracle run feed the {!Bw_obs} subsystem. *)

(** The fault-injection site (["qa.pipeline"]) crossed after the
    pipeline runs.  [Raise] makes {!transform} raise
    {!Bw_obs.Fault.Injected}; [Corrupt] applies
    {!drop_live_out_stores} — arm it (e.g.
    [BWC_FAULTS=qa.pipeline=corrupt@every:1]) to simulate a silently
    miscompiling optimizer that both the oracle and {!Lint} must
    catch. *)
val site : string

(** Delete every assignment and [read()] whose target is a [live_out]
    variable, at any depth.  [None] if the program stores to no
    live-out variable (nothing to corrupt). *)
val drop_live_out_stores : Bw_ir.Ast.program -> Bw_ir.Ast.program option

(** The optimized program: guarded pipeline + the [qa.pipeline] fault
    site.  Raises only when a [Raise] fault is armed; a [Corrupt] fault
    with nothing to corrupt (no live-out stores) is a no-op, so
    minimization cannot collapse a reproducer into a degenerate empty
    program. *)
val transform : Bw_ir.Ast.program -> Bw_ir.Ast.program

(** [test ?trials p] checks [p], transforms it, and differentially
    validates the pair over [trials] (default 2) input streams.
    [Error msg] describes the first failure: a [Check] rejection, an
    optimizer exception, an engine runtime error, or an observation
    mismatch. *)
val test : ?trials:int -> Bw_ir.Ast.program -> (unit, string) result

(** [fails p] — [test p] returned [Error _].  The predicate the
    minimizer preserves. *)
val fails : Bw_ir.Ast.program -> bool

(** [fuzz ~before ~seed ~count ~size] runs {!test} on the {!Gen}
    programs of seeds [seed] .. [seed + count - 1] at [size], in seed
    order, and stops at the first failure.  [before ()] runs before
    each program is generated (serve checks its deadline there).
    Returns how many programs were tested and the first
    counterexample: its seed, the program and {!test}'s message. *)
val fuzz :
  before:(unit -> unit) ->
  seed:int ->
  count:int ->
  size:int ->
  int * (int * Bw_ir.Ast.program * string) option
