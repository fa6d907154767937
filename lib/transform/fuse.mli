(** Loop fusion: the rewriting side.

    {!fuse_at} merges two adjacent loops that
    {!Bw_analysis.Depend.fusable} accepts.  Conformable loops concatenate
    their bodies under one header; constant-bound loops with mismatched
    ranges fuse over the convex hull of their iteration spaces, with each
    body guarded by its own range test — the form the paper's Figure 6(b)
    takes. *)

(** [fuse_at p position] fuses the top-level statements at [position] and
    [position + 1] (both must be loops) into one loop over the first
    one's index. *)
val fuse_at : Bw_ir.Ast.program -> int -> (Bw_ir.Ast.program, string) result

(** [apply_plan p partitions] reorders the top-level statements into the
    given partition sequence (each partition lists original positions, and
    is kept in ascending original order) and fuses each multi-statement
    partition into a single loop.  Every position must appear exactly
    once; the implied order must respect top-level dependences; partitions
    of size > 1 must contain only loops that fuse pairwise. *)
val apply_plan :
  Bw_ir.Ast.program -> int list list -> (Bw_ir.Ast.program, string) result

(** Greedy fusion sweep: repeatedly fuse the first fusable adjacent pair
    of top-level loops until none remains.  This is the default
    pipeline's fuse stage, and the baseline every fusion-search result
    ([Bw_fusion.Search]) is measured against. *)
val greedy : Bw_ir.Ast.program -> Bw_ir.Ast.program
