(** Data-dependence tests between array references and the fusion-legality
    judgement built on them.

    The tests are the classical ZIV / strong-SIV family restricted to the
    loop being fused: for a pair of references with affine subscripts
    [c*i + k1] and [c*i + k2] in some dimension, the dependence distance
    is [(k1 - k2) / c] when integral, and the references are independent
    when a dimension admits no solution.  Anything non-affine or with
    mismatched coefficients is Unknown and treated conservatively. *)

type answer =
  | Independent  (** the references can never touch the same element *)
  | Dependent of int option
      (** they can; [Some d] when every conflict satisfies
          [iter2 - iter1 = d] for the tested index *)
  | Unknown  (** analysis gave up; assume the worst *)

val pp_answer : Format.formatter -> answer -> unit

(** [pair_test ~index r1 r2] relates iterations of the loop [index]
    between reference [r1] (in the first loop) and [r2] (in the second,
    with its loop index already renamed to [index]). *)
val pair_test : index:string -> Refs.t -> Refs.t -> answer

(** One tested reference pair of a loop: [acc1] occurs textually before
    [acc2] on the same [array], and [answer] relates their iterations of
    the loop's index (so [Dependent (Some d)] with [d < 0] means the
    later reference touches an element a {e later} iteration of the
    earlier one also touches — a backward dependence). *)
type pair_info = {
  array : string;
  acc1 : Refs.access;
  acc2 : Refs.access;
  answer : answer;
}

(** [loop_pairs l] tests every textually ordered pair of same-array
    references in [l]'s body (nested statements included) against [l]'s
    index, skipping read/read pairs.  This is the dependence summary the
    {!Preserve} linter compares across a transformation. *)
val loop_pairs : Bw_ir.Ast.loop -> pair_info list

(** [conformable l1 l2] holds when the loops have structurally equal
    bounds and step once [l2]'s index is renamed to [l1]'s. *)
val conformable : Bw_ir.Ast.loop -> Bw_ir.Ast.loop -> bool

(** Constant bounds [(lo, hi, step)] of a loop, when they are literals. *)
val constant_bounds : Bw_ir.Ast.loop -> (int * int * int) option

(** [fusable l1 l2] decides whether the adjacent loops [l1; l2] may be
    fused into one loop over [l1]'s index:
    - bounds must be conformable, or both constant with equal step (the
      fused loop then runs over the hull with guards);
    - at most one of the loops may consume the [read()] input stream
      (fusing two consumers interleaves their stream positions);
    - no array dependence from one loop to the other with negative
      distance, and nothing Unknown;
    - no scalar carried between the loops unless the scalar is private
      (written before read) in the loop that reads it.

    Returns [Error reason] naming the offending variable: of several
    offending arrays, the one of the first offending pair in ([l1]
    reference, [l2] reference) textual order; of several carried
    scalars, the first by name. *)
val fusable : Bw_ir.Ast.loop -> Bw_ir.Ast.loop -> (unit, string) result

(** [scalar_private body s] holds when every read of scalar [s] in [body]
    is preceded by a write to [s] on the same straight-line path of the
    same iteration (so each iteration can use a fresh private copy). *)
val scalar_private : Bw_ir.Ast.stmt list -> string -> bool
