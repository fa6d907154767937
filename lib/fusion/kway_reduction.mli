(** The Section 3.1.3 NP-hardness reduction, made executable: a k-way cut
    instance (weighted undirected graph + terminals) becomes a fusion
    instance by adding a fusion-preventing pair per terminal pair and a
    2-node hyper-edge per graph edge.  A minimum k-way cut of weight [c]
    corresponds to an optimal fusion of total length [W + c] where [W] is
    the total edge weight (every edge has length >= 1; cut edges have
    length 2). *)

(** [optimal_cut_via_fusion g ~terminals] solves the k-way cut by solving
    the fusion instance exhaustively and subtracting [W] — the round trip
    the NP-completeness proof relies on. *)
val optimal_cut_via_fusion : Bw_graph.Undirected.t -> terminals:int list -> int
