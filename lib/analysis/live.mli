(** Live ranges of arrays across the top-level statement sequence.

    The paper's storage transformations key off this: loop fusion shortens
    an array's live range to a single loop nest, after which the array can
    be shrunk, peeled, or have its write-backs eliminated.  Positions are
    indices into [program.body]. *)

type range = {
  array : string;
  first : int;  (** first top-level statement touching the array *)
  last : int;  (** last top-level statement touching it *)
  read_positions : int list;
  write_positions : int list;
  live_out : bool;
      (** listed in [program.live_out] — its final contents escape *)
}

val pp_range : Format.formatter -> range -> unit

(** One range per declared array that is referenced at all. *)
val analyse : Bw_ir.Ast.program -> range list

val range_of : range list -> string -> range option

(** [dead_after ranges ~position array]: no statement strictly after
    [position] reads [array], and it is not live-out — so values written
    at or before [position] need never reach memory.  [ranges] come from
    {!analyse}; an array without a range is never referenced, the ranges
    do not say whether it is live-out, and the answer is [false]. *)
val dead_after : range list -> position:int -> string -> bool

(** Arrays whose entire live range is the single statement at [position]
    (and that are not live-out): candidates for storage reduction. *)
val local_to : Bw_ir.Ast.program -> position:int -> string list
