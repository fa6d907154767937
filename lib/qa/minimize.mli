(** Delta-debugging minimizer for failing fuzz programs.

    Greedy first-improvement reduction: from the current program, try
    candidates that each (a) delete one statement at any nesting depth,
    (b) halve a constant loop bound, (c) drop one [live_out] entry, or
    (d) prune declarations nothing mentions — keeping a candidate only
    if it is strictly smaller, still passes {!Bw_ir.Check.check}, and
    [still_fails] holds.  Repeats to a fixpoint, so the reported
    reproducer is 1-minimal with respect to these operations. *)

type stats = {
  rounds : int;  (** fixpoint iterations (successful shrinks + 1) *)
  candidates : int;  (** candidates evaluated against [still_fails] *)
  kept : int;  (** candidates accepted *)
}

(** [minimize ~still_fails p] assumes [still_fails p = true] (e.g.
    {!Oracle.fails}); the result is guaranteed to satisfy [still_fails]
    and [Check.check].  At most 2000 candidates are tried. *)
val minimize :
  still_fails:(Bw_ir.Ast.program -> bool) ->
  Bw_ir.Ast.program ->
  Bw_ir.Ast.program * stats
