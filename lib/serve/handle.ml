(* Pure compute behind each serve op: request in, result payload out.
   No sockets, no cache, no pool — the server wraps these in its
   concurrency machinery, and the tests call them directly.  The
   optimize op's typed core, [optimized], is also what `bwc optimize`
   and `bwc profile` print.

   Every op that executes a program runs the request's engine once per
   program, through [execute]: analyze, simulate and the exact predict
   tier stream one run into every requested machine
   ([Run.simulate_many]), optimize simulates its input and, when the
   pipeline changed it, its output, and the reuse tier takes a private
   capture for its reuse pass. *)

module Json = Bw_core.Json

exception Deadline_exceeded

(* Deadlines are absolute [Unix.gettimeofday] instants (the server
   computes them at admission); checks sit at tier boundaries — before
   each engine run, each per-machine evaluation, each fuzz iteration —
   so an expired request stops at the next coarse-grained step instead
   of being computed to completion and thrown away. *)
let check_deadline = function
  | None -> ()
  | Some d -> if Unix.gettimeofday () > d then raise Deadline_exceeded

let execute_site = "serve.execute"

let () =
  Bw_obs.Fault.declare
    ~doc:"Fail a program execution before its engine run (nothing cached)"
    execute_site

(* Every engine run starts here: an expired request does not start a
   run it cannot wait for, and the [serve.execute] fault site fails
   it. *)
let execute ?deadline run =
  check_deadline deadline;
  Bw_obs.Fault.cut execute_site;
  run ()

let memory_mb (r : Bw_exec.Run.result) =
  float_of_int (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache) /. 1e6

(* The per-machine row simulate answers with; analyze's row extends it. *)
let run_row (r : Bw_exec.Run.result) =
  [ ("machine", Json.String r.Bw_exec.Run.machine.Bw_machine.Machine.name);
    ("seconds", Json.Float (Bw_exec.Run.seconds r));
    ( "effective_bandwidth_mbs",
      Json.Float (Bw_exec.Run.effective_bandwidth r /. 1e6) );
    ("memory_mb", Json.Float (memory_mb r)) ]

let run_json (r : Bw_exec.Run.result) =
  let counters = r.Bw_exec.Run.counters in
  let row = Bw_core.Balance.of_result r in
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
               row.Bw_core.Balance.per_boundary) );
        ( "bound",
          Json.Obj
            [ ("resource", Json.String resource);
              ("demand_supply_ratio", Json.Float ratio);
              ( "cpu_utilisation",
                Json.Float
                  (Bw_core.Balance.cpu_utilisation_bound row machine) ) ] ) ])

(* --- analyze and simulate -------------------------------------------------- *)

(* Both stream one engine run into every requested machine; they differ
   only in how much of each result they render. *)
let simulated ?deadline (req : Protocol.request) ~machines p ~row =
  let results =
    execute ?deadline (fun () ->
        Bw_exec.Run.simulate_many ~engine:req.Protocol.engine ~machines p)
  in
  Json.Obj
    [ ("program", Json.String p.Bw_ir.Ast.prog_name);
      ("results", Json.List (List.map row results)) ]

let analyze ?deadline req ~machines p =
  simulated ?deadline req ~machines p ~row:run_json

let simulate ?deadline req ~machines p =
  simulated ?deadline req ~machines p ~row:(fun r -> Json.Obj (run_row r))

(* --- predict --------------------------------------------------------------- *)

(* The analytic tier never executes; the reuse tier takes one capture
   and prices every machine from it; the exact tier streams one run
   into every machine. *)
let predict ?deadline (req : Protocol.request) ~machines p =
  let engine = req.Protocol.engine in
  let each evaluate =
    List.map (fun m -> check_deadline deadline; evaluate m) machines
  in
  let evaluations =
    match req.Protocol.budget with
    | `Analytic -> each (fun machine -> Bw_exec.Evaluate.of_program ~machine p)
    | `Reuse ->
      let c = execute ?deadline (fun () -> Bw_exec.Run.capture ~engine p) in
      each (fun machine -> Bw_exec.Evaluate.of_reuse ~machine c)
    | `Exact ->
      List.map Bw_exec.Evaluate.of_result
        (execute ?deadline (fun () ->
             Bw_exec.Run.simulate_many ~engine ~machines p))
  in
  let rows =
    List.map
      (fun (e : Bw_exec.Evaluate.t) ->
        Json.Obj
          [ ("machine", Json.String e.Bw_exec.Evaluate.machine_name);
            ( "fidelity",
              Json.String
                (Bw_exec.Evaluate.fidelity_name e.Bw_exec.Evaluate.fidelity) );
            ("seconds", Json.Float e.Bw_exec.Evaluate.seconds);
            ("memory_mb", Json.Float (Bw_exec.Evaluate.memory_bytes e /. 1e6));
            ( "binding_resource",
              Json.String e.Bw_exec.Evaluate.binding_resource ) ])
      evaluations
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

type optimized = {
  output : Bw_ir.Ast.program;
  report : Bw_transform.Strategy.stage_report;
  events : Bw_transform.Guard.event list;
  search : (Bw_fusion.Search.stats, string) result option;
  before : Bw_exec.Run.result;
  after : Bw_exec.Run.result;
}

let optimized ?deadline ~engine ?stages ?guard ?search ~machine p =
  check_deadline deadline;
  (* the search runs inside the guarded pipeline; its closure keeps the
     last outcome for the caller and declines on an error *)
  let outcome = ref None in
  let fuse_search =
    Option.map
      (fun cfg q ->
        let r = Bw_fusion.Search.run cfg q in
        outcome := Some (Result.map snd r);
        match r with Ok (q', _) -> q' | Error _ -> q)
      search
  in
  let output, report, events =
    Bw_transform.Strategy.run_guarded ?stages ?guard ~machine ?fuse_search p
  in
  let run q =
    execute ?deadline (fun () -> Bw_exec.Run.simulate ~engine ~machine q)
  in
  let before = run p in
  (* an unchanged program simulates to the same result: run it once *)
  let after = if Bw_ir.Ast.equal_program output p then before else run output in
  { output; report; events; search = !outcome; before; after }

let optimize ?deadline (req : Protocol.request) ~machines p =
  let machine = List.hd machines in
  let o =
    optimized ?deadline ~engine:req.Protocol.engine
      ~guard:(Protocol.guard_config req.Protocol.pipeline)
      ~machine p
  in
  let report = o.report in
  let seconds_before = Bw_exec.Run.seconds o.before in
  let seconds_after = Bw_exec.Run.seconds o.after in
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
             o.events) );
      ("memory_mb_before", Json.Float (memory_mb o.before));
      ("memory_mb_after", Json.Float (memory_mb o.after));
      ("seconds_before", Json.Float seconds_before);
      ("seconds_after", Json.Float seconds_after);
      ("speedup", Json.Float (seconds_before /. seconds_after));
      ( "behaviour_preserved",
        Json.Bool
          (Bw_exec.Interp.equal_observation o.before.Bw_exec.Run.observation
             o.after.Bw_exec.Run.observation) );
      ("optimized", Json.String (Bw_ir.Pretty.program_to_string o.output)) ]

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
let compute ?deadline (req : Protocol.request) ~machines
    (program : Bw_ir.Ast.program option) =
  match (req.Protocol.op, program) with
  | Protocol.Analyze, Some p -> analyze ?deadline req ~machines p
  | Protocol.Predict, Some p -> predict ?deadline req ~machines p
  | Protocol.Optimize, Some p -> optimize ?deadline req ~machines p
  | Protocol.Simulate, Some p -> simulate ?deadline req ~machines p
  | Protocol.Fuzz, _ -> fuzz ?deadline req
  | (Protocol.Ping | Protocol.Metrics | Protocol.Shutdown), _
  | _, None ->
    invalid_arg "Handle.compute: op handled by the server loop"

