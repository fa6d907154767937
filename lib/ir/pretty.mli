(** Rendering of IR programs in the paper's pseudo-code style:

    {v
    For i=1, N
      a[i] = a[i] + 0.4
    End for
    v} *)

val pp_cond : Format.formatter -> Ast.cond -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
