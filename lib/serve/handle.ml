(* Pure compute behind each serve op: request in, result payload out.
   No sockets, no cache, no pool — the server wraps these in its
   concurrency machinery, and the tests call them directly.

   Every op that executes a program takes the program's capture from
   the [capture] supplier and replays or profiles it; nothing here runs
   an engine any other way.  The server supplies captures from its
   single-flight capture cache, shared across requests and ops; a test
   can pass [Run.capture] itself.  Replay is bit-identical to direct
   simulation, so the answer is the same either way. *)

module Json = Bw_core.Json

exception Deadline_exceeded

(* Deadlines are absolute [Unix.gettimeofday] instants (the server
   computes them at admission); checks sit at tier boundaries — before
   each per-machine evaluation, each capture, each fuzz iteration —
   so an expired request stops at the next coarse-grained step instead
   of being computed to completion and thrown away. *)
let check_deadline = function
  | None -> ()
  | Some d -> if Unix.gettimeofday () > d then raise Deadline_exceeded

let mb bytes = float_of_int bytes /. 1e6

(* The per-machine row simulate answers with; analyze's row extends it. *)
let run_row (r : Bw_exec.Run.result) =
  [ ("machine", Json.String r.Bw_exec.Run.machine.Bw_machine.Machine.name);
    ("seconds", Json.Float (Bw_exec.Run.seconds r));
    ( "effective_bandwidth_mbs",
      Json.Float (Bw_exec.Run.effective_bandwidth r /. 1e6) );
    ( "memory_mb",
      Json.Float (mb (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache)) ) ]

let run_json (r : Bw_exec.Run.result) =
  let counters = r.Bw_exec.Run.counters in
  let row =
    { Bw_core.Balance.name = "";
      per_boundary = Bw_exec.Run.program_balance r }
  in
  let machine = r.Bw_exec.Run.machine in
  let resource, ratio = Bw_core.Balance.worst_ratio row machine in
  Json.Obj
    (run_row r
    @ [ ( "counters",
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
                Json.Float
                  (Bw_core.Balance.cpu_utilisation_bound row machine) ) ] ) ])

(* --- analyze and simulate -------------------------------------------------- *)

(* Both replay the capture on every requested machine; they differ only
   in how much of each result they render. *)
let replayed ?deadline ~capture ~machines p ~row =
  check_deadline deadline;
  let c = capture p in
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ( "results",
        Json.List (List.map row (Bw_exec.Run.replay_many ~machines c)) ) ]

let analyze ?deadline ~capture ~machines p =
  replayed ?deadline ~capture ~machines p ~row:run_json

let simulate ?deadline ~capture ~machines p =
  replayed ?deadline ~capture ~machines p ~row:(fun r ->
      Json.Obj (run_row r))

(* --- predict --------------------------------------------------------------- *)

(* The analytic tier never executes; the other two take the capture
   once, at the first machine, and price every machine from it. *)
let predict ?deadline ~capture (req : Protocol.request) ~machines p =
  let c = lazy (capture p) in
  let evaluate machine =
    match req.Protocol.budget with
    | `Analytic -> Bw_exec.Evaluate.of_program ~machine p
    | `Reuse -> Bw_exec.Evaluate.of_reuse ~machine (Lazy.force c)
    | `Exact ->
      Bw_exec.Evaluate.of_result (Bw_exec.Run.replay ~machine (Lazy.force c))
  in
  let rows =
    List.map
      (fun machine ->
        check_deadline deadline;
        let e = evaluate machine in
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

let optimize ?deadline ~capture (req : Protocol.request) ~machines p =
  let guard = Protocol.guard_config req.Protocol.pipeline in
  let machine = List.hd machines in
  check_deadline deadline;
  let p', report, events =
    Bw_transform.Strategy.run_guarded ~guard ~machine p
  in
  let run q =
    check_deadline deadline;
    Bw_exec.Run.replay ~machine (capture q)
  in
  let before = run p in
  let after = run p' in
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

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz ?deadline (req : Protocol.request) =
  let programs, failure =
    Bw_qa.Oracle.fuzz
      ~before:(fun () -> check_deadline deadline)
      ~seed:req.Protocol.seed ~count:req.Protocol.count
      ~size:req.Protocol.size
  in
  Json.Obj
    ([ ("programs", Json.Int programs);
       ("seed", Json.Int req.Protocol.seed);
       ("size", Json.Int req.Protocol.size);
       ("ok", Json.Bool (Option.is_none failure)) ]
    @
    match failure with
    | None -> []
    | Some (seed, p, msg) ->
      [ ( "counterexample",
          Json.Obj
            [ ("seed", Json.Int seed);
              ("message", Json.String msg);
              ("program", Json.String (Bw_ir.Pretty.program_to_string p)) ] )
      ])

(* --- dispatch -------------------------------------------------------------- *)

(* Compute the result payload for one request.  Ping/Metrics/Shutdown
   are server concerns and never reach this function. *)
let compute ?deadline ~capture (req : Protocol.request) ~machines
    (program : Bw_ir.Ast.program option) =
  match (req.Protocol.op, program) with
  | Protocol.Analyze, Some p -> analyze ?deadline ~capture ~machines p
  | Protocol.Predict, Some p -> predict ?deadline ~capture req ~machines p
  | Protocol.Optimize, Some p -> optimize ?deadline ~capture req ~machines p
  | Protocol.Simulate, Some p -> simulate ?deadline ~capture ~machines p
  | Protocol.Fuzz, _ -> fuzz ?deadline req
  | (Protocol.Ping | Protocol.Metrics | Protocol.Shutdown), _
  | _, None ->
    invalid_arg "Handle.compute: op handled by the server loop"

