(** Static well-formedness and type checking of IR programs.

    The checker enforces: unique declarations; every variable reference
    resolves to a declaration or an enclosing loop index; array references
    carry exactly one subscript per declared dimension and subscripts are
    integer-typed; operand types agree ([Mod] is integer-only, [Sqrt] and
    [Call] are float-only); loop bounds and steps are integers; loop
    indices are never assigned and never shadow declarations; [live_out]
    names are declared. *)

type error = { context : string; message : string }

val pp_error : Format.formatter -> error -> unit

(** [check p] is [Ok ()] or [Error es] with every problem found. *)
val check : Ast.program -> (unit, error list) result

(** [check_exn p] raises [Invalid_argument] with a rendered error list. *)
val check_exn : Ast.program -> unit
