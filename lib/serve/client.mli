(** Blocking client for the [bwc serve] wire protocol — one JSON
    request per line, one JSON response line back.  Used by
    [bwc client], the load generator, and the tests.

    Two layers: the plain client ({!connect}/{!request}) does exactly
    one attempt, while {!resilient} adds per-attempt socket timeouts,
    retries with decorrelated-jitter exponential backoff within a total
    sleep budget, honours the server's [retry_after_ms] hint, and only
    ever retries idempotent requests ({!Protocol.idempotent}). *)

type t

(** Connect to a running server.  [timeout_s] sets SO_RCVTIMEO /
    SO_SNDTIMEO so a stalled server surfaces as a transport error
    instead of a hang.  Raises [Unix.Unix_error] (or [Failure] for an
    unresolvable host) on failure. *)
val connect : ?timeout_s:float -> Server.addr -> t

(** {!connect}, with a failed connect as an [Error] of one line naming
    the address and the cause, as {!one_shot} reports it. *)
val try_connect : ?timeout_s:float -> Server.addr -> (t, string) result

val close : t -> unit

(** Send an already-encoded request line and parse the response line.
    Errors are transport/parse-level only — a server-side failure comes
    back as an [Ok] response with ["status": "error"]. *)
val request_raw : t -> string -> (Bw_core.Json.t, string) result

(** Encode and send a {!Protocol.request}. *)
val request : t -> Protocol.request -> (Bw_core.Json.t, string) result

(** Connect ([timeout_s] as in {!connect}), send one request, read the
    response, close.  A failed connect is an [Error] of one line naming
    the address and the cause, e.g. [cannot connect to
    unix:/tmp/bwc.sock: No such file or directory]. *)
val one_shot :
  ?timeout_s:float ->
  Server.addr ->
  Protocol.request ->
  (Bw_core.Json.t, string) result

(** Scrape the [/metrics] endpoint over a fresh connection and return
    the exposition body (HTTP headers stripped); a failed connect is an
    [Error] as in {!one_shot}. *)
val fetch_metrics : Server.addr -> (string, string) result

(** {2 Resilient client} *)

type retry_config = {
  timeout_s : float;  (** per-attempt socket timeout; [0.] = none *)
  max_retries : int;
      (** retries per request that the server asks for ([overloaded],
          [worker_crashed]); transport failures are bounded by the
          budget alone *)
  base_backoff_ms : int;  (** backoff floor *)
  max_backoff_ms : int;  (** backoff ceiling *)
  retry_budget_ms : int;
      (** total backoff sleep allowed over the client's lifetime; once
          spent, failures are returned instead of retried *)
}

(** 10 s timeout, 3 retries, 25 ms..2 s backoff, 30 s budget. *)
val default_retry_config : retry_config

type resilient

(** Lazily-connecting retrying client.  [seed] makes the jitter
    deterministic for tests. *)
val resilient : ?cfg:retry_config -> ?seed:int -> Server.addr -> resilient

val resilient_close : resilient -> unit

(** Retries performed so far (across all requests on this client). *)
val retry_count : resilient -> int

(** One request with retries, only for idempotent requests.  A
    transport failure — a connect error, a dropped or half-written
    reply, a read timeout — is retried with backoff while the budget
    lasts (the connection is re-established, since the stream may hold
    a half-written reply).  A connect error on a client that has never
    connected is returned at once: a missing socket or a refused port
    fails fast, while a server that restarts under a connected client
    is waited for.  Connect errors read as in {!one_shot}.  A server
    rejection with a retryable [code]
    ([overloaded], honouring its [retry_after_ms]; [worker_crashed]) is
    retried at most [max_retries] times per request, within the same
    budget.  Other structured errors — including [deadline_exceeded]
    and [shutting_down] — are returned as-is: they are answers, not
    transport failures. *)
val resilient_request :
  resilient -> Protocol.request -> (Bw_core.Json.t, string) result
