(** The [bwc serve] wire protocol: versioned request/response JSON.

    {2 Framing}

    One JSON document per line, newline-terminated, in both directions
    ("JSON lines").  A connection carries any number of requests,
    answered in order.  As a convenience for scraping, a raw line
    beginning with [GET /metrics] is answered with a minimal HTTP
    response carrying the plain-text metrics exposition and closes the
    connection — [curl http://host:port/metrics] works against a TCP
    server.

    {2 Envelope}

    Requests carry [{"v":1,"op":...,...}]; the version defaults to the
    current one and a mismatched version is rejected.  Responses are
    [{"v":1,"id":...,"op":...,"status":"ok","cached":bool,"result":...}]
    or [{"v":1,"id":...,"status":"error","error":"one-line message"}].
    A malformed or invalid request produces an error {e response} — it
    never terminates the connection, let alone the daemon.

    {2 Resilience envelope}

    Requests may carry a [deadline_ms] budget; the server clamps it to
    its configured cap and answers [code:"deadline_exceeded"] when the
    budget runs out before the result is ready.  Error responses may
    carry a machine-readable [code] ([bad_request],
    [deadline_exceeded], [overloaded], [shutting_down],
    [request_too_large], [worker_crashed]) and, for [overloaded], a
    [retry_after_ms] hint that well-behaved clients honour.  Under
    overload the server may answer a degradable op ([analyze],
    [predict]) from the analytic tier instead of queueing: such
    responses gain [degraded:true] plus a [fidelity] tag and are never
    served from or stored into the result cache, so the byte-identical
    cache-hit guarantee only ever covers full-fidelity answers.

    {2 Caching}

    {!cache_key} names the answer, not the request text: the program
    part is the canonical {!Bw_ir.Digest}, and every answer-affecting
    knob (op, machine list, engine, budget, pipeline configuration,
    fuzz parameters) is spelled into the key.  Ops without deterministic
    answers ([ping], [metrics], [shutdown]) have no key. *)

module Json = Bw_core.Json

val version : int

type op =
  | Ping  (** liveness + server info *)
  | Metrics  (** plain-text metrics exposition *)
  | Analyze  (** simulate on each machine: balance, counters, timing *)
  | Predict  (** tiered evaluation at the requested budget *)
  | Optimize  (** guarded pipeline + before/after simulation *)
  | Simulate  (** capture once (shared server-side), replay per machine *)
  | Fuzz  (** differential fuzzing over seeded programs *)
  | Shutdown  (** begin graceful drain *)

val op_name : op -> string
val op_of_name : string -> op option

(** Guard configuration of an [optimize] request. *)
type pipeline = { validate : int; lint : bool; fuel : int option }

val default_pipeline : pipeline

(** The {!Bw_transform.Guard.config} an [optimize] request runs under. *)
val guard_config : pipeline -> Bw_transform.Guard.config

type request = {
  id : string option;  (** client correlation id, echoed in the response *)
  op : op;
  program : string option;  (** registry name or [.bw] path (server-side) *)
  source : string option;  (** inline [.bw] source, alternative to [program] *)
  scale : int;  (** 1..3, checked by {!Bw_workloads.Registry.check_scale} *)
  machines : string list;
  engine : [ `Compiled | `Interpreted ];
  budget : [ `Analytic | `Reuse | `Exact ];  (** predict tier *)
  pipeline : pipeline;
  seed : int;  (** fuzz *)
  count : int;  (** fuzz *)
  size : int;  (** fuzz *)
  no_cache : bool;  (** bypass the result cache for this request *)
  deadline_ms : int option;
      (** client latency budget; the server clamps it to its cap and
          never starts (or continues into a new tier of) work for an
          expired request.  Not part of the cache key: the answer is the
          same whether or not it arrived in time. *)
}

val default_request : op -> request

(** Decode; every failure is a one-line [Error] in the
    {!Bw_core.Loader} style. *)
val request_of_json : Json.t -> (request, string) result

(** {!Json.parse} + {!request_of_json}; malformed JSON is an [Error]. *)
val request_of_string : string -> (request, string) result

val json_of_request : request -> Json.t

(** [degraded] is the fidelity tag of an under-overload analytic answer
    (adds [degraded:true] + [fidelity] to the envelope). *)
val ok_response :
  ?id:string -> ?degraded:string -> op:op -> cached:bool -> Json.t -> Json.t

val error_response :
  ?id:string -> ?code:string -> ?retry_after_ms:int -> string -> Json.t

(** Client-side: extract the result payload or the error message. *)
val response_result : Json.t -> (Json.t, string) result

(** Whether the server answered from its result cache. *)
val response_cached : Json.t -> bool

(** Whether the server degraded this answer to a cheaper tier. *)
val response_degraded : Json.t -> bool

(** Machine-readable error code, when the server attached one. *)
val response_error_code : Json.t -> string option

(** The [overloaded] backoff hint, when present. *)
val response_retry_after_ms : Json.t -> int option

(** Whether a request is safe to retry (everything but [shutdown]). *)
val idempotent : request -> bool

(** Ops the server may answer from the analytic tier under overload. *)
val degradable : op -> bool

(** {2 Machines} *)

(** Resolve the request's machine names through
    {!Bw_core.Loader.machine}, the catalogue the CLI uses. *)
val resolve_machines : request -> (Bw_machine.Machine.t list, string) result

(** {2 Engines, budgets} *)

val engine_of_name : string -> ([ `Compiled | `Interpreted ], string) result
val engine_name : [ `Compiled | `Interpreted ] -> string
val budget_of_name : string -> ([ `Analytic | `Reuse | `Exact ], string) result
val budget_name : [ `Analytic | `Reuse | `Exact ] -> string
val evaluate_budget : [ `Analytic | `Reuse | `Exact ] -> Bw_exec.Evaluate.budget

(** {2 Cache keys and program loading} *)

(** [None] for ops whose answers are not cacheable. *)
val cache_key : request -> program:Bw_ir.Ast.program option -> string option

(** Key of the machine-independent capture shared by simulate requests. *)
val capture_key : request -> program:Bw_ir.Ast.program -> string

val needs_program : request -> bool

(** Resolve [program]/[source] to an IR program ({!Bw_core.Loader} for
    names, the parser for inline source); one-line [Error]s. *)
val load_program : request -> (Bw_ir.Ast.program, string) result
