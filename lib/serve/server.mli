(** The [bwc serve] daemon.

    A long-running service answering newline-delimited JSON requests
    ({!Protocol}) over a Unix or TCP socket.  Per-connection system
    threads do the blocking I/O; handler compute runs on a persistent
    work-stealing domain pool ({!Bw_exec.Pool}).  Cacheable responses
    are memoised in a content-addressed result cache keyed on IR digest
    × machine set × pipeline config ({!Protocol.cache_key}); simulate
    requests for the same program × engine share one capture through a
    second, single-flight cache ({!Protocol.capture_key}) and each
    replays its own machines with {!Bw_exec.Run.replay_many}.

    Raw lines beginning with ["GET "] are answered with a minimal
    HTTP/1.0 response carrying the {!Expose.render} metrics text, so
    [curl http://host:port/metrics] works against a TCP listener.

    Shutdown is drain-then-exit: {!request_shutdown} (also wired to
    SIGTERM/SIGINT by {!install_signal_handlers}) stops the accept
    loop, wakes idle connections, lets busy ones finish their current
    request, then {!wait} joins everything and shuts the pool down.
    Requests arriving on a still-open connection after the drain began
    are rejected with [code:"shutting_down"].

    {2 Resilience}

    Every request gets an absolute {e deadline} at admission (its own
    [deadline_ms] clamped to [max_deadline_ms], else
    [default_deadline_ms]); it is enforced when the pool dequeues the
    task (an expired request is never computed) and at tier boundaries
    inside {!Handle}, producing [code:"deadline_exceeded"].  {e
    Admission control} watches the pool backlog: beyond
    [degrade_queue], degradable ops (analyze/predict) are answered
    inline from the analytic tier with [degraded:true] — fidelity is
    shed before availability — and beyond [max_queue] requests are
    rejected with [code:"overloaded"] plus a [retry_after_ms] hint.
    Worker-domain crashes are supervised by {!Bw_exec.Pool}: the
    affected request gets [code:"worker_crashed"] and the pool heals
    itself.  A {e watchdog} thread shuts down connections idle longer
    than [idle_timeout_s], and request lines longer than
    [max_request_bytes] are answered with [code:"request_too_large"]
    and the connection dropped rather than buffered without bound.

    Chaos sites armed via [BWC_FAULTS] drive all of this in tests/CI:
    [pool.worker.crash] (kill a worker domain at task pickup),
    [serve.compute.delay] (straggler compute), [serve.socket.stall]
    (half-written reply, sleep, rest), [serve.socket.close] (drop the
    connection mid-reply), [serve.capture] (fail a simulate capture,
    which caches nothing).  The HTTP metrics scrape is exempt from
    socket chaos so observability survives the storm it is watching.

    Metrics: [serve.queue.depth] (gauge), [serve.queue.shed],
    [serve.queue.degraded], [serve.deadline.expired],
    [serve.watchdog.closed], [serve.request.oversized],
    [pool.worker.respawns]. *)

type addr = Unix_sock of string | Tcp of string * int

val pp_addr : Format.formatter -> addr -> unit

type config = {
  addr : addr;
  jobs : int option;  (** worker domains; default [cores - 1] *)
  cache_capacity : int;  (** result-cache entries before LRU eviction *)
  capture_capacity : int;  (** capture-cache entries *)
  verbose : bool;
  max_queue : int;
      (** reject ([overloaded]) when the pool backlog reaches this *)
  degrade_queue : int;
      (** degrade analyze/predict to the analytic tier from this
          backlog on (must be ≤ [max_queue] to ever fire) *)
  default_deadline_ms : int;
      (** deadline for requests that bring none; [0] disables *)
  max_deadline_ms : int;  (** cap on client-supplied [deadline_ms] *)
  idle_timeout_s : float;
      (** watchdog closes connections idle this long; [0.] disables *)
  max_request_bytes : int;  (** per-line request size bound *)
}

val default_config : addr -> config

type t

(** Bind, listen, spawn the accept loop, and return immediately.
    With [Tcp (host, 0)] the kernel picks a port; read it back from
    {!addr}.  A stale Unix socket file at the requested path is
    unlinked first. *)
val start : config -> t

(** The bound address — differs from the configured one only in the
    ephemeral-port case. *)
val addr : t -> addr

(** Ask the server to drain: stop accepting, wake idle connections,
    finish in-flight requests.  Returns immediately; safe to call from
    a signal handler (it only sets a flag — the accept loop performs
    the actual drain). *)
val request_shutdown : t -> unit

(** Block until the accept loop has exited and every connection has
    drained, then shut the worker pool down and remove the Unix socket
    file.  Call after {!request_shutdown} (or let a [shutdown] request
    / signal trigger the drain). *)
val wait : t -> unit

(** [request_shutdown] + [wait]. *)
val stop : t -> unit

(** Route SIGTERM and SIGINT to {!request_shutdown}. *)
val install_signal_handlers : t -> unit
