(** Pure compute behind each serve op: request in, JSON result payload
    out.  No sockets, no caching, no pool — {!Server} supplies those;
    tests call these directly.  This is the op core of both front ends:
    serve renders these payloads, and [bwc optimize] and [bwc profile]
    print {!optimized}, the typed record that {!optimize} renders.

    Every function is deterministic in its arguments (the property the
    result cache relies on) and safe to run concurrently with itself on
    other domains.

    The ops that execute a program run the request's engine once per
    program they execute: analyze, simulate and predict at the [exact]
    budget stream one run into every requested machine
    ({!Bw_exec.Run.simulate_many}), optimize simulates its input and,
    when the pipeline changed it, its output, and predict at the [reuse]
    budget streams one run into a reuse profile per distinct last-level
    line size ({!Bw_exec.Run.reuse_pass}); no op stores a trace.  Each
    engine run first crosses the [serve.execute] fault site.

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
    ({!Bw_exec.Evaluate.of_program}, no execution), reuse profiles of one
    streamed run ({!Bw_exec.Evaluate.of_reuse}) or one simulation run
    streamed into every machine ({!Bw_exec.Evaluate.of_result}). *)
val predict :
  ?deadline:float ->
  Protocol.request ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  Json.t

(** Simulated memory traffic of a run, in MB (10{^6} bytes). *)
val memory_mb : Bw_exec.Run.result -> float

(** What one optimization did: the pipeline's output, its report and
    guard events, the fusion search's outcome when one was asked for,
    and the simulations of the input and of the output ([after] is
    [before] itself when the output equals the input). *)
type optimized = {
  output : Bw_ir.Ast.program;
  report : Bw_transform.Strategy.stage_report;
  events : Bw_transform.Guard.event list;
  search : (Bw_fusion.Search.stats, string) result option;
      (** [None] unless [search] was given and its stage ran; on an
          [Error] the stage returns its input, so nothing is fused *)
  before : Bw_exec.Run.result;
  after : Bw_exec.Run.result;
}

(** [optimized ~engine ?stages ?guard ?search ~machine p] runs
    {!Bw_transform.Strategy.run_guarded} over [stages] (default
    {!Bw_transform.Strategy.default}) under [guard] (default
    {!Bw_transform.Guard.default_config}); [search] replaces the fuse
    stage's sweep with {!Bw_fusion.Search.run}.  It then simulates [p]
    and, unless {!Bw_ir.Ast.equal_program} finds it unchanged, the
    output on [machine] with [engine], each run crossing [serve.execute]
    after a deadline check.
    @raise Bw_transform.Guard.Guard_failed as [run_guarded] does. *)
val optimized :
  ?deadline:float ->
  engine:[ `Compiled | `Interpreted ] ->
  ?stages:Bw_transform.Strategy.stage list ->
  ?guard:Bw_transform.Guard.config ->
  ?search:Bw_fusion.Search.config ->
  machine:Bw_machine.Machine.t ->
  Bw_ir.Ast.program ->
  optimized

(** {!optimized} on the {e first} requested machine, with the request's
    engine and [pipeline] config, rendered as JSON. *)
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
