(** Array shrinking and peeling (Section 3.2, Figure 6).

    After fusion localises an array's live range to one loop nest, the
    dimension swept by the loop index usually carries only a short window
    of live values (e.g. subscripts [j-1] and [j] — a window of 2).  The
    transformation

    - {b peels} columns referenced with a constant subscript (the
      [a[i,1] -> a1[i]] rewrite) into dedicated smaller arrays,
    - {b unrolls} the boundary iterations where a windowed reference
      aliases a peeled column (the paper's [if (j=2)] guards, realised
      here as loop splitting), and
    - {b shrinks} the swept dimension to the window depth, rewriting
      subscripts to modular form.

    The result replaces an [N x N] array by one [N x depth] buffer plus
    [N]-element peels — the storage reduction the paper reports. *)

type plan = {
  array : string;
  loop_position : int;  (** top-level position of the enclosing loop *)
  dim : int;  (** dimension swept by the loop index *)
  depth : int;  (** live window: max offset - min offset + 1 *)
  offsets : int list;  (** window offsets of the variable references *)
  write_offset : int;
  peeled_columns : int list;  (** constant columns split into peel arrays *)
  unrolled_iterations : int list;  (** boundary iterations made explicit *)
}

val pp_plan : Format.formatter -> plan -> unit

(** [plan p array] analyses feasibility without rewriting. *)
val plan : Bw_ir.Ast.program -> string -> (plan, string) result

(** [apply p array] shrinks one array.  The returned program is
    semantically equivalent (checked by construction and by the test
    suite's interpreter comparisons). *)
val apply : Bw_ir.Ast.program -> string -> (Bw_ir.Ast.program * plan, string) result

(** Shrink every array the analysis accepts; returns the plans applied,
    in order.  Each round applies the first array, in declaration order
    and not shrunk yet, that plans, until none does. *)
val shrink_all : Bw_ir.Ast.program -> Bw_ir.Ast.program * plan list

(** Total declared data bytes of a program — the storage metric Figure 6
    reduces. *)
val storage_bytes : Bw_ir.Ast.program -> int
