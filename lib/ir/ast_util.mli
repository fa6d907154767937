(** Traversals and queries over the IR. *)

open Ast

(** Tables keyed by variable name, compared with [String.equal].
    [String.hash] is [Hashtbl.hash] on strings, so a [Names] table
    iterates in the order a generic [Hashtbl] with the same bindings
    would. *)
module Names : Hashtbl.S with type key = string

(** [mem_name x names]: is [x] one of [names]?  [List.mem] with
    [String.equal] instead of the generic comparison, for the name sets
    the analyses and transforms test on every reference. *)
val mem_name : string -> string list -> bool

(** [assoc_name x pairs]: the value [x] is bound to in [pairs], as
    [List.assoc_opt] with [String.equal]. *)
val assoc_name : string -> (string * 'a) list -> 'a option

(** Every sub-expression of an expression, including itself (pre-order). *)
val subexprs : expr -> expr list

(** Fold over every expression occurring in a statement, including those
    inside nested statements, loop bounds and lvalue subscripts. *)
val fold_stmt_exprs : ('a -> expr -> 'a) -> 'a -> stmt -> 'a

val fold_stmts_exprs : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a

(** Fold over every statement in a statement list, visiting nested
    statements pre-order. *)
val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a

(** Names of variables read by an expression (scalars and arrays). *)
val expr_reads : expr -> string list

(** Every array reference in the statements, reads and writes alike —
    lvalues, loop bounds and conditions included — as
    [(array, subscripts)], last first. *)
val array_refs : stmt list -> (string * expr list) list

(** Names of arrays referenced (read) by an expression. *)
val expr_array_reads : expr -> string list

(** [vars_read body] / [vars_written body]: names of variables read /
    written anywhere in the statements.  A [Read_input] counts as a write.
    Loop indices are not included in [vars_written]. *)
val vars_read : stmt list -> string list

val vars_written : stmt list -> string list

(** Arrays (per the program's declarations) accessed anywhere in the
    statements, in first-occurrence order. *)
val arrays_accessed : program -> stmt list -> string list

(** All loop index names bound anywhere in the statements. *)
val loop_indices : stmt list -> string list

(** [rename_scalar ~from ~into stmts] renames every occurrence of the
    scalar (or loop index) [from] — reads, writes and loop headers. *)
val rename_scalar : from:string -> into:string -> stmt list -> stmt list

(** [subst_scalar ~name ~value e] replaces reads of scalar [name] in [e]. *)
val subst_scalar : name:string -> value:expr -> expr -> expr

(** [subst_scalar_stmts ~name ~value stmts] substitutes in every expression
    position (fails with [Invalid_argument] if [name] is written). *)
val subst_scalar_stmts : name:string -> value:expr -> stmt list -> stmt list

(** Rewrite every statement bottom-up: children first, then the parent. *)
val rewrite_stmts : (stmt -> stmt) -> stmt list -> stmt list

(** Structural statement count (loops, assigns, ifs, reads, prints). *)
val stmt_count : stmt list -> int

(** A fresh name based on [base] that clashes with nothing in [taken]. *)
val fresh_name : taken:string list -> string -> string
