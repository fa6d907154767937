(** Pure compute behind each serve op: request in, JSON result payload
    out.  No sockets, no caching, no pool — {!Server} supplies those;
    tests call these directly.

    Every function is deterministic in its arguments (the property the
    result cache relies on) and safe to run concurrently with itself on
    other domains.

    [deadline] is an absolute [Unix.gettimeofday] instant.  It is
    checked at tier boundaries — before each per-machine evaluation,
    each simulation, each fuzz iteration — and an expired deadline
    raises {!Deadline_exceeded} instead of finishing work nobody will
    wait for.  Passing no deadline disables all checks. *)

module Json = Bw_core.Json

(** Raised by any compute function once its [deadline] has passed. *)
exception Deadline_exceeded

(** [check_deadline (Some d)] raises {!Deadline_exceeded} when the
    current time is past [d]; the server also calls this at dequeue so
    an already-expired request is never computed at all. *)
val check_deadline : float option -> unit

val analyze :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

val predict :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Runs the guarded pipeline under the request's [pipeline] config and
    simulates before/after on the {e first} requested machine. *)
val optimize :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Replays the program's capture on each requested machine.
    [capture] supplies that capture; the server passes one from its
    single-flight capture cache.  Without it, a private capture is
    taken.  The answer is the same either way. *)
val simulate :
  ?deadline:float ->
  ?capture:(unit -> Bw_exec.Run.capture) ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

val fuzz : ?deadline:float -> Protocol.request -> Json.t

(** Dispatch on the request's op.  Ping/Metrics/Shutdown are server-loop
    concerns and raise [Invalid_argument] here. *)
val compute :
  ?deadline:float ->
  ?capture:(unit -> Bw_exec.Run.capture) ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program option ->
  Json.t

(** The load-shed answer: evaluate on the analytic tier regardless of
    the requested budget (microseconds of work, [predict]-shaped
    payload).  The caller is responsible for tagging the response
    [degraded] and for keeping it out of the result cache. *)
val degraded :
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t
