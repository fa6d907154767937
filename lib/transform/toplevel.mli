(** Dependences between top-level statements of a program.

    Node [i] is [List.nth program.body i].  There is an edge [a -> b]
    (with [a < b]) whenever the two statements access a common variable
    and at least one of them writes it — the condition under which their
    relative order must be preserved by any reordering or partitioning. *)

val dep_graph : Bw_ir.Ast.program -> Bw_graph.Digraph.t

(** [reorder p order] permutes the top-level statements; fails when the
    order drops/duplicates positions or violates a dependence. *)
val reorder : Bw_ir.Ast.program -> int list -> (Bw_ir.Ast.program, string) result
