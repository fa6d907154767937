(** Pure compute behind each serve op: request in, JSON result payload
    out.  No sockets, no caching, no pool — {!Server} supplies those;
    tests call these directly.

    Every function is deterministic in its arguments (the property the
    result cache relies on) and safe to run concurrently with itself on
    other domains.

    The ops that execute a program run the request's engine once per
    program they execute: analyze, simulate and predict at the [exact]
    budget stream one run into every requested machine
    ({!Bw_exec.Run.simulate_many}), optimize simulates its input and its
    output, and predict at the [reuse] budget takes one private
    {!Bw_exec.Run.capture} for its reuse pass.  Each engine run first
    crosses the [serve.execute] fault site.

    [deadline] is an absolute [Unix.gettimeofday] instant.  It is
    checked at tier boundaries — before each engine run, each
    per-machine evaluation, each fuzz iteration — and an expired
    deadline raises {!Deadline_exceeded} instead of finishing work
    nobody will wait for.  Passing no deadline disables all checks. *)

module Json = Bw_core.Json

(** Raised by any compute function once its [deadline] has passed. *)
exception Deadline_exceeded

(** [check_deadline (Some d)] raises {!Deadline_exceeded} when the
    current time is past [d]; the server also calls this at dequeue so
    an already-expired request is never computed at all. *)
val check_deadline : float option -> unit

(** Simulates the program on each requested machine in one engine run:
    balance, counters, timing and bound per machine. *)
val analyze :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Evaluates each machine at the request's budget: the analytic model
    ({!Bw_exec.Evaluate.of_program}, no execution), a reuse pass over
    one capture ({!Bw_exec.Evaluate.of_reuse}) or one simulation run
    streamed into every machine ({!Bw_exec.Evaluate.of_result}). *)
val predict :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Runs the guarded pipeline under the request's [pipeline] config and
    simulates the input and the output on the {e first} requested
    machine. *)
val optimize :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Simulates the program on each requested machine in one engine run:
    the first four fields of {!analyze}'s per-machine row. *)
val simulate :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

val fuzz : ?deadline:float -> Protocol.request -> Json.t

(** Dispatch on the request's op.  Ping/Metrics/Shutdown are server-loop
    concerns and raise [Invalid_argument] here. *)
val compute :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program option ->
  Json.t
