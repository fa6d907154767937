(** The bounded-resource timing model.

    A program's execution time is bounded below by the time each shared
    resource needs to move its share of the work:

    - CPU:        [flops / flops_per_sec]
    - registers:  [8 * (loads + stores) / register_bandwidth]
    - cache boundary [i]: [boundary traffic / bandwidth(i)]
    - memory:     [(bytes_in + penalty * bytes_out) / memory_bandwidth]

    The predicted time is the maximum of these — the paper's thesis that
    actual latency is the inverse of consumed bandwidth, so a saturated
    channel determines the execution time.  The per-resource terms are
    exposed so experiments can report which resource binds.

    {!bound} is the one implementation of the model: the exact tier
    ({!predict}), the analytic tier ([Bw_analysis.Predict]) and the
    reuse tier ([Bw_exec.Evaluate.of_reuse]) each count their traffic
    and price it through {!bound}. *)

type breakdown = {
  cpu_time : float;
  register_time : float;
  boundary_times : (string * float) list;
      (** one entry per cache boundary, e.g. [("L2-L1", t); ("Mem-L2", t)];
          the memory term includes the write-back penalty *)
  total : float;  (** max of all terms *)
  binding_resource : string;  (** name of the term achieving the max *)
}

(** [bound machine ~flops ~register_bytes ~levels] evaluates the model
    on counts.  [levels] gives, for each of [machine]'s caches
    (CPU-closest first), the bytes fetched into it and the bytes written
    back out of it: the traffic over the boundary below it, which for
    the last level is the memory bus, where each written-back byte costs
    [machine.writeback_penalty].  The register term and the boundaries
    are named by {!Machine.boundary_names}.
    @raise Invalid_argument unless [levels] and
    [machine.cache_bandwidths] both have one entry per cache. *)
val bound :
  Machine.t ->
  flops:float ->
  register_bytes:float ->
  levels:(float * float) list ->
  breakdown

(** [predict machine cache counters] evaluates the model after a
    simulation run on [cache]: {!bound} of the counters' flops and
    register bytes, each level's fetched and written-back bytes, and
    the memory bus's for the last level. *)
val predict : Machine.t -> Cache.t -> Counters.t -> breakdown

(** Total memory traffic in bytes (both directions, unweighted). *)
val memory_bytes : Cache.t -> int

(** [effective_bandwidth machine cache counters] is total memory traffic
    divided by predicted time — the quantity plotted in Figure 3. *)
val effective_bandwidth : Machine.t -> Cache.t -> Counters.t -> float

(** Fraction of the machine's memory bandwidth the program sustains:
    effective bandwidth / memory bandwidth (the §2.3 utilisation metric,
    capped at 1). *)
val memory_utilisation : Machine.t -> Cache.t -> Counters.t -> float

val pp_breakdown : Format.formatter -> breakdown -> unit

(** [predict_with_latency machine cache counters ~miss_latency ~overlap]
    adds an exposed-latency term to the bandwidth model:
    [total + (1 - overlap) * memory_line_fetches * miss_latency].
    [overlap = 0] models a blocking cache (every miss stalls);
    [overlap = 1] models perfect prefetching / non-blocking caches — and
    recovers the pure bandwidth bound, the paper's point that latency
    tolerance converges on the bandwidth limit. *)
val predict_with_latency :
  Machine.t -> Cache.t -> Counters.t -> miss_latency:float -> overlap:float ->
  float
