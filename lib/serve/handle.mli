(** Pure compute behind each serve op: request in, JSON result payload
    out.  No sockets, no caching, no pool — {!Server} supplies those;
    tests call these directly.

    Every function is deterministic in its arguments (the property the
    result cache relies on) and safe to run concurrently with itself on
    other domains.

    The ops that execute a program — analyze, simulate, predict at the
    [reuse] and [exact] budgets, and optimize (its input and its
    output) — execute it only by taking its capture from the [capture]
    supplier and replaying or profiling it.  The server passes its
    single-flight capture cache, so one program is executed once however
    many ops and machines ask about it; a test can pass
    {!Bw_exec.Run.capture} itself.  Replay is bit-identical to direct
    simulation, so the answer is the same either way.

    [deadline] is an absolute [Unix.gettimeofday] instant.  It is
    checked at tier boundaries — before each per-machine evaluation,
    each capture, each fuzz iteration — and an expired deadline
    raises {!Deadline_exceeded} instead of finishing work nobody will
    wait for.  Passing no deadline disables all checks. *)

module Json = Bw_core.Json

(** Raised by any compute function once its [deadline] has passed. *)
exception Deadline_exceeded

(** [check_deadline (Some d)] raises {!Deadline_exceeded} when the
    current time is past [d]; the server also calls this at dequeue so
    an already-expired request is never computed at all. *)
val check_deadline : float option -> unit

(** Replays the capture on each requested machine: balance, counters,
    timing and bound per machine. *)
val analyze :
  ?deadline:float ->
  capture:(Bw_ir.Ast.program -> Bw_exec.Run.capture) ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Evaluates each machine at the request's budget: the analytic model
    ({!Bw_exec.Evaluate.of_program}, no execution), a reuse pass over
    the capture ({!Bw_exec.Evaluate.of_reuse}) or an exact replay of it
    ({!Bw_exec.Evaluate.of_result}). *)
val predict :
  ?deadline:float ->
  capture:(Bw_ir.Ast.program -> Bw_exec.Run.capture) ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Runs the guarded pipeline under the request's [pipeline] config and
    replays the captures of the input and the output on the {e first}
    requested machine. *)
val optimize :
  ?deadline:float ->
  capture:(Bw_ir.Ast.program -> Bw_exec.Run.capture) ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Replays the capture on each requested machine: the first four
    fields of {!analyze}'s per-machine row. *)
val simulate :
  ?deadline:float ->
  capture:(Bw_ir.Ast.program -> Bw_exec.Run.capture) ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

val fuzz : ?deadline:float -> Protocol.request -> Json.t

(** Dispatch on the request's op.  Ping/Metrics/Shutdown are server-loop
    concerns and raise [Invalid_argument] here. *)
val compute :
  ?deadline:float ->
  capture:(Bw_ir.Ast.program -> Bw_exec.Run.capture) ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program option ->
  Json.t
