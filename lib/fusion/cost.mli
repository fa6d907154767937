(** Objectives and correctness constraints over partition sequences.

    A partition sequence is [int list list]: each inner list holds
    top-level statement positions (ascending), and the outer order is the
    execution order of the fused partitions. *)

(** Problem 3.1's correctness constraints: every node exactly once, no
    fusion-preventing pair inside a partition, and every dependence edge
    flowing to the same or a later partition. *)
val validate : Fusion_graph.t -> int list list -> (unit, string) result

(** The paper's objective: sum over partitions of the number of distinct
    arrays the partition accesses (= total arrays loaded from memory). *)
val bandwidth_cost : Fusion_graph.t -> int list list -> int

(** The Gao et al. / Kennedy-McKinley objective this paper argues
    against: total number of (loop, loop, shared array) coincidences
    crossing partition boundaries, counted pairwise with edge weights. *)
val edge_weight_cost : Fusion_graph.t -> int list list -> int

(** Cost with no fusion at all: each statement its own partition. *)
val unfused : Fusion_graph.t -> int list list

(** Shared-array count between two nodes (the edge weight of the
    classical formulation). *)
val shared_arrays : Fusion_graph.t -> int -> int -> int

(** [predicted_traffic ?machine p partitions] prices a partition
    sequence in {e bytes} rather than array counts: the plan is applied
    with {!Bw_transform.Fuse.apply_plan} and the resulting program is
    scored with the analytic tier of the tiered evaluator
    ({!Bw_exec.Evaluate.of_program} — closed-form, no execution) on
    [machine] (default {!Bw_machine.Machine.origin2000}).  Returns the predicted
    memory-bus traffic of the fused program, or the plan-application
    error.  Unlike {!bandwidth_cost}, this accounts for array sizes,
    cache capacities, line granularity and writebacks, so it can rank
    plans that touch the same arrays different numbers of times. *)
val predicted_traffic :
  ?machine:Bw_machine.Machine.t ->
  Bw_ir.Ast.program ->
  int list list ->
  (float, string) result

(** Canonical key for a partition sequence: ["0.2|1|3.4"] — members
    joined by ['.'], partitions by ['|'].  Injective over valid plans
    (members ascending, outer order = execution order), so it can key
    memo tables and result caches. *)
val signature : int list list -> string

(** A per-search memo table for {!predicted_traffic}, keyed on
    {!signature}.  Search engines revisit the same partition many times
    (annealing moves are frequently undone); a memo turns every repeat
    into one hash lookup.  Hits are also counted in {!Bw_obs.Metrics}
    under [fusion.search.cache_hit]. *)
type memo

(** A fresh, empty memo.  Memos are scoped to one (program, machine)
    pair — do not share a memo across different programs or machines,
    the signature does not encode either. *)
val memo : unit -> memo

val memo_hits : memo -> int
val memo_misses : memo -> int

(** [predicted_traffic_memo ?machine ~memo p partitions] is
    {!predicted_traffic} with results cached in [memo]. *)
val predicted_traffic_memo :
  ?machine:Bw_machine.Machine.t ->
  memo:memo ->
  Bw_ir.Ast.program ->
  int list list ->
  (float, string) result
