(** Data-layout transformations, in the spirit of Ferry et al.'s
    burst/page-friendly data reorganisation: change {e where} values
    live, never {e what} is computed.

    Four rewrites, the last three of which {!run} searches:

    - {b Pad}: extend an array's {e last} dimension (column-major, so
      existing element offsets — and hence initial values — are
      untouched).  The extra rows shift every later array's base
      address, breaking the power-of-two inter-array alignments that
      thrash direct-mapped caches.  Available through {!apply} only:
      the analytic tier never sees addresses, so a pad cannot lower its
      predicted traffic and {!run} could never accept one.
    - {b Interleave}: fuse two co-accessed same-shape arrays into one
      with a leading extent-2 dimension ({!Regroup}), so one cache line
      delivers both operands.
    - {b Split} (AoS → SoA): an array whose small leading dimension is
      only ever subscripted with constants is split into one array per
      lane, so loops that touch a subset of the lanes stop paying cache
      lines for the rest.
    - {b Transpose}: a read-only 2-D array whose innermost-loop
      subscript is the {e slow} one gets a transposed copy (built by
      emitted copy loops, whose cost is simulated like everything else)
      and all references are rewritten to the unit-stride orientation —
      page- and burst-friendly blocking at array granularity.

    {!run} applies candidates greedily, keeping only those the analytic
    tier of {!Bw_exec.Evaluate} prices as a memory-traffic improvement;
    layout decisions are counted under [pass.layout.*] metrics.  Every
    rewrite preserves observable behaviour exactly (validated in the
    test suite by {!Guard.validate_pair} and {!Bw_analysis.Preserve});
    live-out arrays are never padded, split or interleaved. *)

type action =
  | Pad of { array : string; extra : int }
      (** extend the last dimension by [extra] elements *)
  | Interleave of { first : string; second : string }
  | Split of { array : string; lanes : int }
  | Transpose of { array : string }

val action_to_string : action -> string

(** Apply one rewrite; [Error] explains why it does not apply (missing
    array, live-out, non-constant lane subscript, name clash, ...). *)
val apply :
  Bw_ir.Ast.program -> action -> (Bw_ir.Ast.program, string) result

(** Rewrites that structurally apply to the program, heuristically
    ordered (transposes first, then splits, then interleaves); never a
    pad.  No scoring — {!run} prices them. *)
val candidates : Bw_ir.Ast.program -> action list

(** [run ?machine p] greedily applies candidates: each round scores
    every remaining candidate with the analytic evaluator on [machine]
    (default Origin2000) and commits the best one as long as it cuts
    predicted memory traffic by more than 2%.  Returns the rewritten
    program and the actions applied, in order.  Never raises on a
    misbehaving candidate: one that fails to apply or breaks
    {!Bw_ir.Check.check} is skipped. *)
val run :
  ?machine:Bw_machine.Machine.t ->
  Bw_ir.Ast.program ->
  Bw_ir.Ast.program * action list
