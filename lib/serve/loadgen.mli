(** Load generator: client domains driving a seeded mixed request
    stream against a running server, reporting latency percentiles,
    throughput, per-outcome counts, and the observed cache hit rate.
    Backs [bwc client --load] and — in [chaos] mode — the chaos harness
    behind [bwc client --load --chaos].

    In chaos mode each client domain is a {!Client.resilient} retrying
    client and the stream is tilted at the resilience machinery (a
    slice of tight [deadline_ms] requests, a slice of [no_cache] so
    work actually reaches the possibly-crashing pool).  The pass
    criterion for a chaos run is [failed = 0]: every request either
    answered (full-fidelity or degraded) or structurally rejected —
    no hangs, no unexplained transport failures. *)

type spec = {
  addr : Server.addr;
  clients : int;  (** client domains, each with its own connection *)
  requests : int;  (** total across all clients *)
  seed : int;  (** stream seed — same seed, same request stream *)
  scale : int;  (** workload scale passed in each request *)
  chaos : bool;  (** resilient clients + fault-hunting stream *)
  timeout_s : float;  (** per-attempt socket timeout (chaos mode) *)
  retries : int;
      (** retries per request the server asks for (chaos mode) *)
}

(** 2 clients, 1000 requests, seed 42, scale 1, no chaos (10 s
    timeout and 3 retries once chaos is switched on). *)
val default_spec : Server.addr -> spec

(** Latency distribution of one outcome class. *)
type bucket = {
  count : int;
  b_p50_ms : float;
  b_p90_ms : float;
  b_p99_ms : float;
  b_max_ms : float;
}

type stats = {
  requests : int;
  clients : int;
  errors : int;
      (** anything that was not an ok answer: rejections, error
          replies, transport failures *)
  cached : int;  (** responses answered from the result cache *)
  hit_rate : float;
  wall_seconds : float;
  throughput_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  ok : int;  (** full-fidelity answers *)
  degraded : int;  (** analytic-tier answers under load shed *)
  rejected : int;
      (** structured rejections: [overloaded], [deadline_exceeded],
          [shutting_down], [request_too_large] *)
  shed : int;  (** the [overloaded] subset of [rejected] *)
  failed : int;  (** transport failures, after retries — hangs/crashes *)
  retried : int;  (** total client retries consumed *)
  by_outcome : (string * bucket) list;
      (** per-outcome latency percentiles, keyed [ok]/[degraded]/
          [rejected]/[error]/[failed] *)
}

(** Run the load; blocks until every client finishes.  A plain
    (non-chaos) client that cannot connect makes the run an [Error] of
    the one line {!Client.one_shot} would give, e.g. [cannot connect to
    unix:/tmp/bwc.sock: No such file or directory]. *)
val run : spec -> (stats, string) result

val json_of_stats : stats -> Bw_core.Json.t
