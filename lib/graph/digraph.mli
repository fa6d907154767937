(** Growable directed graphs over integer node identifiers.

    Nodes are dense integers [0 .. node_count - 1].  The structure is
    imperative: nodes and edges can be added at any time.  Parallel edges
    are collapsed (adding an existing edge is a no-op); self-loops are
    permitted.  All operations that take a node id raise [Invalid_argument]
    if the id is outside the current node range. *)

type t

(** [create ()] is an empty graph.  [size_hint] pre-allocates internal
    storage for roughly that many nodes. *)
val create : ?size_hint:int -> unit -> t

(** [add_node g] allocates a fresh node and returns its id. *)
val add_node : t -> int

(** [ensure_nodes g n] grows the graph so that ids [0 .. n-1] are valid. *)
val ensure_nodes : t -> int -> unit

val node_count : t -> int
val edge_count : t -> int

(** [add_edge g u v] adds the directed edge [u -> v]. *)
val add_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** Successors of a node, in insertion order. *)
val succ : t -> int -> int list

(** Predecessors of a node, in insertion order. *)
val pred : t -> int -> int list

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_succ : t -> int -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> unit) -> unit
val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** All edges as pairs, in no particular order. *)
val edges : t -> (int * int) list

(** [of_edges ~n edges] builds a graph with [n] nodes and the given edges. *)
val of_edges : n:int -> (int * int) list -> t

(** A structural copy sharing nothing with the original. *)
val copy : t -> t

(** The graph with every edge reversed. *)
val reverse : t -> t

val pp : Format.formatter -> t -> unit
