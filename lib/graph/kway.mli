(** Multiway (k-way) cuts on weighted undirected graphs.

    The paper proves bandwidth-minimal fusion NP-complete by reduction from
    the k-way cut problem: find a minimum-weight edge set whose removal
    pairwise disconnects k designated terminals.  This module provides the
    classical isolation heuristic (a 2 - 2/k approximation) and an exact
    enumerative solver for small instances, used both as a test oracle and
    to exercise the reduction of Section 3.1.3. *)

type cut = {
  value : int;  (** total weight of the removed edges *)
  removed : (int * int) list;  (** removed edges as (u, v) with u <= v *)
  assignment : int array;
      (** [assignment.(v)] is the index (into the terminal list) of the
          terminal whose component contains [v]; [-1] for nodes in no
          terminal's component. *)
}

(** [isolation g ~terminals] runs the isolation heuristic: compute, for
    each terminal, a minimum cut separating it from all the others, and
    return the union of all but the most expensive of these cuts.
    @raise Invalid_argument on fewer than 2 terminals or duplicates. *)
val isolation : Undirected.t -> terminals:int list -> cut

(** [exact g ~terminals] enumerates every assignment of non-terminal nodes
    to terminals and returns a minimum k-way cut.  Exponential:
    k^(n-k) assignments; intended for n - k <= 12 or so. *)
val exact : Undirected.t -> terminals:int list -> cut

(** [cut_value g assignment] is the total weight of edges whose endpoints
    received different assignments. *)
val cut_value : Undirected.t -> int array -> int
