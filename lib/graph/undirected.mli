(** Simple undirected graphs over dense integer nodes, with optional
    per-edge weights.  Used for conflict graphs and for the weighted-graph
    inputs of the k-way cut reduction. *)

type t

val create : ?size_hint:int -> unit -> t
val add_node : t -> int
val ensure_nodes : t -> int -> unit
val node_count : t -> int
val edge_count : t -> int

(** [add_edge g u v] adds an undirected edge of weight [weight]
    (default [1]).  Re-adding an edge keeps the first weight. *)
val add_edge : ?weight:int -> t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool
val weight : t -> int -> int -> int

(** Neighbours of a node (each adjacent node once). *)
val neighbours : t -> int -> int list

(** Each edge once, as [(u, v, weight)] with [u <= v]. *)
val edges : t -> (int * int * int) list

(** Connected components as lists of nodes. *)
val components : t -> int list list
