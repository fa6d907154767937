(** Affine forms of subscript expressions: [const + sum of coeff * var].

    Dependence testing (ZIV/SIV/MIV, the GCD test) operates on these
    forms; a subscript that is not affine in the loop indices makes the
    tests answer "unknown" and the client transformations stay
    conservative. *)

type t = {
  const : int;
  terms : (string * int) list;  (** variable name -> coefficient, sorted
                                    by name, zero coefficients dropped *)
}

val const : int -> t
val var : string -> t
val equal : t -> t -> bool

(** Equality of two [terms] lists, with [String.equal] on the names. *)
val equal_terms : (string * int) list -> (string * int) list -> bool
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

(** [of_expr e] is the affine form of [e], treating every [Scalar] as a
    symbolic variable; [None] if [e] contains array elements, calls,
    non-linear products, or float operations. *)
val of_expr : Bw_ir.Ast.expr -> t option

(** Back to an expression (canonical form: const + c1*v1 + ...). *)
val to_expr : t -> Bw_ir.Ast.expr

val coeff : t -> string -> int
val is_const : t -> bool

(** Variables with non-zero coefficients. *)
val vars : t -> string list

(** [eval t lookup] with every variable resolved. *)
val eval : t -> (string -> int) -> int

(** [drop_var t v] is [t] with [v]'s term removed (used to compare the
    shape of two subscripts modulo one index). *)
val drop_var : t -> string -> t

val pp : Format.formatter -> t -> unit
