(** The Section 2.1 motivating example: two loops over a large array with
    identical reads and flops, one of which also writes the array back.
    On a bandwidth-bound machine the writing loop takes twice as long. *)

(** [For i: a[i] = a[i] + 0.4] — reads and writes [n] doubles. *)
val write_loop : n:int -> Bw_ir.Ast.program

(** [For i: sum = sum + a[i]] — reads [n] doubles, writes nothing. *)
val read_loop : n:int -> Bw_ir.Ast.program
