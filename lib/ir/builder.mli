(** Concise combinators for constructing IR programs.

    Workload definitions read close to the paper's pseudo-code:
    {[
      let open Bw_ir.Builder in
      program "axpy" ~decls:[ array "a" [ n ]; array "b" [ n ] ]
        ~live_out:[ "a" ]
        [ for_ "i" (int 1) (int n)
            [ "a" $. [ v "i" ] <-- (("a" $ [ v "i" ]) +: ("b" $ [ v "i" ])) ] ]
    ]}

    All operators carry a [:] suffix ([+:], [<=:], ...) so opening the
    module does not shadow the standard integer operators. *)

open Ast

val int : int -> expr
val fl : float -> expr

(** Scalar or loop-index read. *)
val v : string -> expr

(** Array element read: ["a" $ [ v "i"; v "j" ]]. *)
val ( $ ) : string -> expr list -> expr

(** Array element lvalue: ["a" $. [ v "i" ]]. *)
val ( $. ) : string -> expr list -> lvalue

(** Scalar lvalue. *)
val sc : string -> lvalue

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr

(** Integer remainder. *)
val ( %: ) : expr -> expr -> expr

val min_ : expr -> expr -> expr
val max_ : expr -> expr -> expr
val neg : expr -> expr
val sqrt_ : expr -> expr

(** Integer-to-float conversion. *)
val to_float : expr -> expr

(** Opaque numeric intrinsic (the paper's [f], [g]). *)
val call : string -> expr list -> expr

val ( =: ) : expr -> expr -> cond
val ( <>: ) : expr -> expr -> cond
val ( <: ) : expr -> expr -> cond
val ( <=: ) : expr -> expr -> cond
val ( >: ) : expr -> expr -> cond
val ( >=: ) : expr -> expr -> cond
val and_ : cond -> cond -> cond
val or_ : cond -> cond -> cond
val not_ : cond -> cond

(** Assignment statement: [lhs <-- rhs]. *)
val ( <-- ) : lvalue -> expr -> stmt

(** Counted loop with inclusive bounds; [step] defaults to 1. *)
val for_ : ?step:expr -> string -> expr -> expr -> stmt list -> stmt

val if_ : cond -> stmt list -> stmt list -> stmt
val read : lvalue -> stmt
val print : expr -> stmt

(** Scalar declaration (default [F64], zero-initialised). *)
val scalar : ?dtype:dtype -> ?init:init -> string -> decl

(** Array declaration; extents must be positive.
    Default initialiser: [Init_linear (1.0, 0.001)].
    @raise Invalid_argument on a non-positive extent. *)
val array : ?dtype:dtype -> ?init:init -> string -> int list -> decl

(** Integer scalar declaration. *)
val int_scalar : ?init:init -> string -> decl

val program :
  ?live_out:string list -> string -> decls:decl list -> stmt list -> program
