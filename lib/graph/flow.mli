(** Maximum flow on directed networks with integer capacities.

    The implementation is Dinic's algorithm (BFS level graph + blocking
    flows), which runs in O(V^2 E) in general and O(E sqrt(V)) on the
    unit-capacity networks produced by vertex-cut reductions.  An
    Edmonds-Karp driver is provided as an independent oracle for testing. *)

type t

(** A capacity large enough to act as infinity without overflow. *)
val infinite : int

(** [create n] is an empty network on nodes [0 .. n-1]. *)
val create : int -> t

val node_count : t -> int

(** [add_edge t ~src ~dst ~cap] adds a directed arc with capacity
    [cap >= 0].  Parallel arcs accumulate.  Returns an arc id usable with
    {!arc}. *)
val add_edge : t -> src:int -> dst:int -> cap:int -> int

(** [max_flow t ~s ~t:snk] computes the maximum s-t flow (Dinic) and leaves
    the flow assignment in place.  Repeated calls recompute from zero. *)
val max_flow : t -> s:int -> t:int -> int

(** Same value, computed with Edmonds-Karp; used as a test oracle. *)
val max_flow_edmonds_karp : t -> s:int -> t:int -> int

(** [min_cut t ~s ~t:snk] computes a maximum flow, then returns
    [(value, side, cut_arcs)] where [side.(v)] is true iff [v] is reachable
    from [s] in the residual network, and [cut_arcs] are the saturated arc
    ids crossing from the source side to the sink side. *)
val min_cut : t -> s:int -> t:int -> int * bool array * int list

(** Endpoints and capacity of an arc id: [(src, dst, cap)]. *)
val arc : t -> int -> int * int * int
