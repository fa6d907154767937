(* Pure compute behind each serve op: request in, result payload out.
   No sockets, no cache, no pool — the server wraps these in its
   concurrency machinery, and the tests call them directly. *)

module Json = Bw_core.Json

exception Deadline_exceeded

(* Deadlines are absolute [Unix.gettimeofday] instants (the server
   computes them at admission); checks sit at tier boundaries — before
   each per-machine evaluation, each simulation, each fuzz iteration —
   so an expired request stops at the next coarse-grained step instead
   of being computed to completion and thrown away. *)
let check_deadline = function
  | None -> ()
  | Some d -> if Unix.gettimeofday () > d then raise Deadline_exceeded

let mb bytes = float_of_int bytes /. 1e6

let run_json (r : Bw_exec.Run.result) =
  let counters = r.Bw_exec.Run.counters in
  let row =
    { Bw_core.Balance.name = "";
      per_boundary = Bw_exec.Run.program_balance r }
  in
  let machine = r.Bw_exec.Run.machine in
  let resource, ratio = Bw_core.Balance.worst_ratio row machine in
  Json.Obj
    [ ("machine", Json.String machine.Bw_machine.Machine.name);
      ("seconds", Json.Float (Bw_exec.Run.seconds r));
      ( "effective_bandwidth_mbs",
        Json.Float (Bw_exec.Run.effective_bandwidth r /. 1e6) );
      ( "memory_mb",
        Json.Float (mb (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache)) );
      ( "counters",
        Json.Obj
          [ ("flops", Json.Int counters.Bw_machine.Counters.flops);
            ("loads", Json.Int counters.Bw_machine.Counters.loads);
            ("stores", Json.Int counters.Bw_machine.Counters.stores) ] );
      ( "balance",
        Json.Obj
          (List.map
             (fun (b, v) -> (b, Json.Float v))
             (Bw_exec.Run.program_balance r)) );
      ( "bound",
        Json.Obj
          [ ("resource", Json.String resource);
            ("demand_supply_ratio", Json.Float ratio);
            ( "cpu_utilisation",
              Json.Float (Bw_core.Balance.cpu_utilisation_bound row machine) )
          ] ) ]

(* --- analyze --------------------------------------------------------------- *)

let analyze ?deadline (req : Protocol.request) ~machines p =
  check_deadline deadline;
  let results =
    Bw_exec.Run.simulate_many ~engine:req.Protocol.engine ~machines p
  in
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ("results", Json.List (List.map run_json results)) ]

(* --- predict --------------------------------------------------------------- *)

let predict ?deadline (req : Protocol.request) ~machines p =
  let budget = Protocol.evaluate_budget req.Protocol.budget in
  let rows =
    List.map
      (fun machine ->
        check_deadline deadline;
        let e = Bw_exec.Evaluate.of_program ~budget ~machine p in
        Json.Obj
          [ ("machine", Json.String e.Bw_exec.Evaluate.machine_name);
            ( "fidelity",
              Json.String
                (Bw_exec.Evaluate.fidelity_name e.Bw_exec.Evaluate.fidelity) );
            ("seconds", Json.Float e.Bw_exec.Evaluate.seconds);
            ("memory_mb", Json.Float (Bw_exec.Evaluate.memory_bytes e /. 1e6));
            ( "binding_resource",
              Json.String e.Bw_exec.Evaluate.binding_resource ) ])
      machines
  in
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ("budget", Json.String (Protocol.budget_name req.Protocol.budget));
      ("results", Json.List rows) ]

(* --- optimize -------------------------------------------------------------- *)

let verdict_json = function
  | Bw_transform.Guard.Committed -> Json.String "committed"
  | Bw_transform.Guard.Rolled_back failure ->
    Json.Obj
      [ ( "rolled_back",
          Json.String
            (Format.asprintf "%a" Bw_transform.Guard.pp_failure failure) ) ]

let optimize ?deadline (req : Protocol.request) ~machines p =
  let guard = Protocol.guard_config req.Protocol.pipeline in
  let machine = List.hd machines in
  check_deadline deadline;
  let p', report, events =
    Bw_transform.Strategy.run_guarded ~guard ~machine p
  in
  check_deadline deadline;
  let before = Bw_exec.Run.simulate ~engine:req.Protocol.engine ~machine p in
  check_deadline deadline;
  let after = Bw_exec.Run.simulate ~engine:req.Protocol.engine ~machine p' in
  let traffic (r : Bw_exec.Run.result) =
    mb (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache)
  in
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ("machine", Json.String machine.Bw_machine.Machine.name);
      ( "report",
        Json.Obj
          [ ( "fused_loops",
              Json.Int report.Bw_transform.Strategy.fused_loops );
            ( "contracted",
              Json.List
                (List.map
                   (fun s -> Json.String s)
                   report.Bw_transform.Strategy.contracted) );
            ( "stores_eliminated",
              Json.List
                (List.map
                   (fun s -> Json.String s)
                   report.Bw_transform.Strategy.stores_eliminated) );
            ("forwarded", Json.Int report.Bw_transform.Strategy.forwarded) ] );
      ( "events",
        Json.List
          (List.map
             (fun (e : Bw_transform.Guard.event) ->
               Json.Obj
                 [ ("stage", Json.String e.Bw_transform.Guard.stage);
                   ("verdict", verdict_json e.Bw_transform.Guard.verdict) ])
             events) );
      ("memory_mb_before", Json.Float (traffic before));
      ("memory_mb_after", Json.Float (traffic after));
      ("seconds_before", Json.Float (Bw_exec.Run.seconds before));
      ("seconds_after", Json.Float (Bw_exec.Run.seconds after));
      ( "speedup",
        Json.Float (Bw_exec.Run.seconds before /. Bw_exec.Run.seconds after) );
      ( "behaviour_preserved",
        Json.Bool
          (Bw_exec.Interp.equal_observation before.Bw_exec.Run.observation
             after.Bw_exec.Run.observation) );
      ("optimized", Json.String (Bw_ir.Pretty.program_to_string p')) ]

(* --- simulate -------------------------------------------------------------- *)

(* The server passes [capture]: the program's capture from its
   single-flight capture cache, shared across requests.  Direct callers
   take a private capture.  Either way the request's machines are
   replayed from it. *)

let simulate_payload p results =
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ( "results",
        Json.List
          (List.map
             (fun (r : Bw_exec.Run.result) ->
               Json.Obj
                 [ ( "machine",
                     Json.String
                       r.Bw_exec.Run.machine.Bw_machine.Machine.name );
                   ("seconds", Json.Float (Bw_exec.Run.seconds r));
                   ( "effective_bandwidth_mbs",
                     Json.Float (Bw_exec.Run.effective_bandwidth r /. 1e6) );
                   ( "memory_mb",
                     Json.Float
                       (mb
                          (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache))
                   ) ])
             results) ) ]

let simulate ?deadline ?capture (req : Protocol.request) ~machines p =
  check_deadline deadline;
  let c =
    match capture with
    | Some f -> f ()
    | None -> Bw_exec.Run.capture ~engine:req.Protocol.engine p
  in
  simulate_payload p (Bw_exec.Run.replay_many ~machines c)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz ?deadline (req : Protocol.request) =
  let failure = ref None in
  let k = ref 0 in
  while !failure = None && !k < req.Protocol.count do
    check_deadline deadline;
    let seed = req.Protocol.seed + !k in
    let p = Bw_qa.Gen.generate ~seed ~size:req.Protocol.size in
    (match Bw_qa.Oracle.test p with
    | Ok () -> ()
    | Error msg -> failure := Some (seed, p, msg));
    incr k
  done;
  Json.Obj
    ([ ("programs", Json.Int !k);
       ("seed", Json.Int req.Protocol.seed);
       ("size", Json.Int req.Protocol.size);
       ("ok", Json.Bool (!failure = None)) ]
    @
    match !failure with
    | None -> []
    | Some (seed, p, msg) ->
      [ ( "counterexample",
          Json.Obj
            [ ("seed", Json.Int seed);
              ("message", Json.String msg);
              ("program", Json.String (Bw_ir.Pretty.program_to_string p)) ] )
      ])

(* --- dispatch -------------------------------------------------------------- *)

(* Compute the result payload for one request.  [capture] lets the
   server share simulate captures across requests; everything else is
   self-contained.  Ping/Metrics/Shutdown are server concerns and never
   reach this function. *)
let compute ?deadline ?capture (req : Protocol.request) ~machines
    (program : Bw_ir.Ast.program option) =
  match (req.Protocol.op, program) with
  | Protocol.Analyze, Some p -> analyze ?deadline req ~machines p
  | Protocol.Predict, Some p -> predict ?deadline req ~machines p
  | Protocol.Optimize, Some p -> optimize ?deadline req ~machines p
  | Protocol.Simulate, Some p -> simulate ?deadline ?capture req ~machines p
  | Protocol.Fuzz, _ -> fuzz ?deadline req
  | (Protocol.Ping | Protocol.Metrics | Protocol.Shutdown), _
  | _, None ->
    invalid_arg "Handle.compute: op handled by the server loop"

(* Under overload the server answers degradable ops from the analytic
   tier regardless of the requested budget: same payload shape as
   [predict], microseconds of work, honestly tagged by the caller. *)
let degraded (req : Protocol.request) ~machines p =
  predict { req with Protocol.budget = `Analytic } ~machines p
