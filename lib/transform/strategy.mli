(** The paper's end-to-end compiler strategy: fuse loops globally, then
    reduce storage (contract, shrink, peel), then eliminate the remaining
    write-backs — and, on request, rewrite the data layout.  The pipeline
    is a list of {!stage}s run in order: {!default} is the paper's
    strategy, [bwc optimize --layout] appends {!Layout}, and the ablation
    benchmarks run shorter lists.

    Every stage of the list runs inside one {!Guard}, as one transaction:
    its output is re-checked, its exceptions are confined, the guard's
    fuel budget bounds it, and (under a validating {!Guard.config}) its
    semantics are differentially validated on both execution engines — a
    failing stage is rolled back and the pipeline continues from the
    stage's input.  {!run} therefore never raises on a misbehaving pass
    and never returns a program that failed its checks; the worst case
    is returning the input unchanged. *)

type stage =
  | Fuse  (** greedy adjacent loop fusion ({!Fuse.greedy}) *)
  | Contract  (** array contraction ({!Contract.contract_arrays}) *)
  | Shrink  (** storage shrinking and peeling ({!Shrink.shrink_all}) *)
  | Forward  (** store-to-load forwarding ({!Scalar_replace}) *)
  | Store_elim  (** dead-store elimination ({!Store_elim}) *)
  | Contract_tidy
      (** a second contraction, for forwarding temps whose store was the
          only consumer *)
  | Layout  (** data-layout rewrites priced on the machine ({!Layout.run}) *)

(** [[Fuse; Contract; Shrink; Forward; Store_elim; Contract_tidy]]: the
    paper's strategy, and what {!run} does unless told otherwise. *)
val default : stage list

(** The stage's guard name, e.g. ["store-elim"]; its fault-injection
    site is [guard.<name>].  Besides the stages, the guard runs the
    ["input"] pseudo-stage first, and a [fuse_search] closure runs
    under ["fuse_search"] in place of {!Fuse}; all of these sites are
    declared when this module initialises. *)
val stage_name : stage -> string

type stage_report = {
  fused_loops : int;  (** top-level statements removed by fusion *)
  contracted : string list;
  shrink_plans : Shrink.plan list;
  stores_eliminated : string list;
  forwarded : int;  (** store sites whose uses were forwarded *)
  layout : Layout.action list;  (** rewrites the {!Layout} stage applied *)
}

(** [run ?stages ?machine ?fuse_search p] applies [stages] (default
    {!default}) in order, returning the transformed program and a report
    of what each committed stage did.  Runs under
    {!Guard.default_config}: no differential validation (and so no
    execution overhead), but per-stage checking and rollback — a result
    always type-checks provided [p] does, and a raising or
    check-breaking stage contributes nothing rather than aborting the
    run.

    [machine] (default {!Bw_machine.Machine.origin2000}) prices the
    {!Layout} stage's candidates.  No other stage reads it, so the
    output of a list without {!Layout} does not depend on the machine.

    [fuse_search], when given, replaces the greedy adjacent-fusion
    sweep of {!Fuse} with a search-based fusion engine (typically
    [Bw_fusion.Search.stage], injected as a closure so this library
    stays independent of [bw_fusion]).  It runs in the guarded stage
    ["fuse_search"] (fault site [guard.fuse_search]).  The closure must
    be total — return its argument to decline. *)
val run :
  ?stages:stage list ->
  ?machine:Bw_machine.Machine.t ->
  ?fuse_search:(Bw_ir.Ast.program -> Bw_ir.Ast.program) ->
  Bw_ir.Ast.program ->
  Bw_ir.Ast.program * stage_report

(** [run_guarded ?stages ?guard ?machine ?fuse_search p] additionally
    returns the guard's per-stage events (commits and rollbacks, in
    pipeline order, ["input"] first) and honours a custom
    {!Guard.config} — differential validation trials, float tolerance,
    a fuel budget shared by every stage, and fail-fast mode.
    @raise Guard.Guard_failed on the first stage failure when
    [guard.rollback] is [false]. *)
val run_guarded :
  ?stages:stage list ->
  ?guard:Guard.config ->
  ?machine:Bw_machine.Machine.t ->
  ?fuse_search:(Bw_ir.Ast.program -> Bw_ir.Ast.program) ->
  Bw_ir.Ast.program ->
  Bw_ir.Ast.program * stage_report * Guard.event list

(** The loop stages' report; [layout] is left to the caller, which
    prints the layout actions itself. *)
val pp_report : Format.formatter -> stage_report -> unit
