(** Order-related algorithms on directed graphs: topological sorting,
    cycle detection, strongly connected components and reachability. *)

(** [sort g] is a topological order of the nodes of [g] (sources first),
    or [None] if [g] has a cycle. *)
val sort : Digraph.t -> int list option

val is_acyclic : Digraph.t -> bool

(** [scc g] is the list of strongly connected components of [g] in reverse
    topological order of the condensation (Tarjan). Each component is a
    non-empty list of node ids. *)
val scc : Digraph.t -> int list list

(** [reachable g s] is a boolean array [r] with [r.(v)] true iff there is a
    directed path (possibly empty) from [s] to [v]. *)
val reachable : Digraph.t -> int -> bool array

(** [has_path g u v] tests directed reachability from [u] to [v]. *)
val has_path : Digraph.t -> int -> int -> bool

(** [transitive_closure g] is a matrix [m] with [m.(u).(v)] true iff [v] is
    reachable from [u].  Quadratic space — intended for small graphs such as
    fusion graphs. *)
val transitive_closure : Digraph.t -> bool array array
