(* The serve subsystem: the single-flight LRU result cache, the wire
   protocol's validation and cache keying, and a real in-process daemon
   exercised over TCP — byte-identical cache hits, zero engine work on
   repeats, malformed requests that never kill the connection, graceful
   drain, and the load generator.

   The resilience layer is tested with armed faults: worker-domain
   crashes heal, deadlines expire into structured errors, overload
   degrades then sheds, the watchdog reaps idle connections, a failed
   execution caches nothing, a drain under load still answers
   everything admitted, the resilient client outlasts dropped replies,
   and the chaos load run ends with zero unanswered requests. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module Json = Bw_core.Json
module Cache = Bw_serve.Cache
module Protocol = Bw_serve.Protocol
module Server = Bw_serve.Server
module Client = Bw_serve.Client
module Loadgen = Bw_serve.Loadgen
module Metrics = Bw_obs.Metrics
module Fault = Bw_obs.Fault
module Pool = Bw_exec.Pool

let counter name = Metrics.counter_value (Metrics.counter name)

(* The fault registry and its hit counters are process-global — every
   server in this binary crosses the pool and socket sites — so zero
   them before arming (Nth policies compare against the absolute count)
   and disarm whatever happens. *)
let with_faults arm_fn f =
  Fault.reset ();
  arm_fn ();
  Fun.protect ~finally:Fault.reset f

(* --- cache ------------------------------------------------------------------ *)

let test_cache_hit_and_miss () =
  let c = Cache.create ~capacity:8 in
  let computed = ref 0 in
  let f () = incr computed; 42 in
  let v1, how1 = Cache.find_or_compute c ~key:"k" f in
  let v2, how2 = Cache.find_or_compute c ~key:"k" f in
  check int "first value" 42 v1;
  check int "second value" 42 v2;
  check bool "first is a miss" true (how1 = `Miss);
  check bool "second is a hit" true (how2 = `Hit);
  check int "computed exactly once" 1 !computed

let test_cache_eviction_at_capacity () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.find_or_compute c ~key:"a" (fun () -> 1));
  ignore (Cache.find_or_compute c ~key:"b" (fun () -> 2));
  (* refresh "a" so "b" is the least recently used *)
  check int "a hit refreshes a" 1
    (fst (Cache.find_or_compute c ~key:"a" (fun () -> 0)));
  ignore (Cache.find_or_compute c ~key:"c" (fun () -> 3));
  check bool "a survives" true (Cache.mem c "a");
  check bool "b evicted" false (Cache.mem c "b");
  check bool "c present" true (Cache.mem c "c");
  let s = Cache.stats c in
  check int "size at capacity" 2 s.Cache.size;
  check int "one eviction" 1 s.Cache.evictions

let test_cache_single_flight () =
  let c = Cache.create ~capacity:8 in
  let computed = ref 0 in
  let m = Mutex.create () in
  let f () =
    Mutex.lock m;
    incr computed;
    Mutex.unlock m;
    Thread.delay 0.1;
    "value"
  in
  let results = Array.make 4 ("", `Miss) in
  let threads =
    Array.init 4 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Cache.find_or_compute c ~key:"shared" f)
          ())
  in
  Array.iter Thread.join threads;
  check int "computed exactly once" 1 !computed;
  Array.iter
    (fun (v, _) -> check string "every caller got the value" "value" v)
    results;
  let misses =
    Array.fold_left
      (fun acc (_, how) -> if how = `Miss then acc + 1 else acc)
      0 results
  in
  check int "exactly one miss" 1 misses;
  check int "three joins" 3 (Cache.stats c).Cache.single_flight_joins

let test_cache_failure_does_not_poison () =
  let c = Cache.create ~capacity:4 in
  (match Cache.find_or_compute c ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the computation's exception"
  | exception Failure msg -> check string "exception propagates" "boom" msg);
  check bool "nothing cached" false (Cache.mem c "k");
  let v, how = Cache.find_or_compute c ~key:"k" (fun () -> 7) in
  check int "retry succeeds" 7 v;
  check bool "retry is a miss" true (how = `Miss)

(* --- protocol --------------------------------------------------------------- *)

let test_protocol_rejects_garbage () =
  let expect_error line =
    match Protocol.request_of_string line with
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
    | Error msg ->
      check bool
        ("one-line error for " ^ line)
        false
        (String.contains msg '\n')
  in
  expect_error "this is not json";
  expect_error "{\"v\":1}";
  expect_error "{\"v\":1,\"op\":\"frobnicate\"}";
  expect_error "{\"v\":99,\"op\":\"ping\"}";
  expect_error "{\"v\":1,\"op\":\"analyze\",\"scale\":7,\"program\":\"x\"}";
  expect_error "{\"v\":1,\"op\":\"fuzz\",\"count\":0}";
  expect_error
    "{\"v\":1,\"op\":\"optimize\",\"program\":\"fig7\",\"pipeline\":{\"fuel\":-1}}";
  (* serve refuses a scale with the CLI's message: both call
     Registry.check_scale, since the builders would otherwise build the
     stress size for it *)
  List.iter
    (fun scale ->
      let msg = Printf.sprintf "scale must be 1, 2 or 3 (got %d)" scale in
      check (Alcotest.result int string) "the check's message" (Error msg)
        (Bw_workloads.Registry.check_scale scale);
      match
        Protocol.request_of_string
          (Printf.sprintf
             "{\"v\":1,\"op\":\"analyze\",\"scale\":%d,\"program\":\"fig7\"}"
             scale)
      with
      | Ok _ -> Alcotest.failf "serve accepted scale %d" scale
      | Error e -> check string "serve's message" msg e)
    [ 0; 4 ]

let test_protocol_roundtrip () =
  let req =
    { (Protocol.default_request Protocol.Predict) with
      Protocol.id = Some "r1";
      program = Some "fig7";
      machines = [ "origin2000"; "exemplar" ];
      budget = `Analytic;
      scale = 2;
      no_cache = true }
  in
  match Protocol.request_of_json (Protocol.json_of_request req) with
  | Error msg -> Alcotest.fail msg
  | Ok req' ->
    check bool "round-trips" true (req = req')

let digest_program name =
  match Bw_core.Loader.load_program ~scale:1 name with
  | Ok p -> p
  | Error msg -> Alcotest.fail msg

(* Serve accepts every machine the CLI does, from the one catalogue, and
   refuses an unknown one with the catalogue's message. *)
let test_protocol_machine_catalogue () =
  let request machines =
    { (Protocol.default_request Protocol.Analyze) with Protocol.machines }
  in
  List.iter
    (fun (name, m) ->
      match Protocol.resolve_machines (request [ name ]) with
      | Ok [ m' ] -> check bool (name ^ " resolves to its model") true (m = m')
      | Ok _ -> Alcotest.failf "%s: expected one machine" name
      | Error e -> Alcotest.failf "%s refused: %s" name e)
    Bw_core.Loader.machines;
  match
    ( Protocol.resolve_machines (request [ "origin2000"; "no-such" ]),
      Bw_core.Loader.machine "no-such" )
  with
  | Error e, Error e' -> check Alcotest.string "the catalogue's error" e' e
  | _ -> Alcotest.fail "an unknown machine must be refused"

let test_cache_keys_never_collide () =
  let p = Some (digest_program "read_loop") in
  let base = Protocol.default_request Protocol.Analyze in
  let variants =
    [ base;
      { base with Protocol.machines = [ "exemplar" ] };
      { base with Protocol.machines = [ "origin2000"; "exemplar" ] };
      { base with Protocol.engine = `Interpreted };
      { base with Protocol.op = Protocol.Predict };
      { base with Protocol.op = Protocol.Predict; budget = `Analytic };
      { base with Protocol.op = Protocol.Simulate };
      { base with Protocol.op = Protocol.Optimize };
      { base with
        Protocol.op = Protocol.Optimize;
        pipeline = { Protocol.default_pipeline with Protocol.lint = true } };
      { base with
        Protocol.op = Protocol.Optimize;
        pipeline = { Protocol.default_pipeline with Protocol.fuel = Some 2 } };
      { base with Protocol.op = Protocol.Fuzz };
      { base with Protocol.op = Protocol.Fuzz; seed = 2 } ]
  in
  let keys =
    List.map
      (fun r ->
        match Protocol.cache_key r ~program:p with
        | Some k -> k
        | None -> Alcotest.fail "expected a cache key")
      variants
  in
  let distinct = List.sort_uniq compare keys in
  check int "all keys distinct" (List.length keys) (List.length distinct);
  (* a different program gives a different key *)
  let other = Some (digest_program "write_loop") in
  check bool "program digest is in the key" false
    (Protocol.cache_key base ~program:p
    = Protocol.cache_key base ~program:other);
  (* scale is deliberately NOT in the key: it only affects the answer
     through the loaded program, whose digest already carries it *)
  check bool "same AST, different scale field: same key" true
    (Protocol.cache_key base ~program:p
    = Protocol.cache_key { base with Protocol.scale = 2 } ~program:p);
  (* uncacheable ops have no key *)
  List.iter
    (fun op ->
      check bool "no key" true
        (Protocol.cache_key (Protocol.default_request op) ~program:None = None))
    [ Protocol.Ping; Protocol.Metrics; Protocol.Shutdown ]

let test_cache_key_is_content_addressed () =
  (* the same program sent by registry name and as inline source keys
     identically: the key holds the IR digest, not the request text *)
  let p = digest_program "read_loop" in
  let source = Bw_ir.Pretty.program_to_string p in
  let by_name =
    { (Protocol.default_request Protocol.Analyze) with
      Protocol.program = Some "read_loop" }
  in
  let by_source =
    { (Protocol.default_request Protocol.Analyze) with
      Protocol.source = Some source }
  in
  let load r = match Protocol.load_program r with
    | Ok p -> Some p
    | Error msg -> Alcotest.fail msg
  in
  check bool "identical keys" true
    (Protocol.cache_key by_name ~program:(load by_name)
    = Protocol.cache_key by_source ~program:(load by_source))

(* --- the daemon, over TCP ---------------------------------------------------- *)

let with_server ?(tweak = fun c -> c) f =
  let config =
    tweak
      { (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
        Server.jobs = Some 2;
        cache_capacity = 64 }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.addr server))

let analyze_line ?id () =
  let req =
    { (Protocol.default_request Protocol.Analyze) with
      Protocol.id;
      program = Some "read_loop" }
  in
  Json.to_string (Protocol.json_of_request req)

let test_server_hit_is_byte_identical () =
  with_server (fun addr ->
      let client = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let line = analyze_line () in
          let r1 = Result.get_ok (Client.request_raw client line) in
          let r2 = Result.get_ok (Client.request_raw client line) in
          check bool "first not cached" false (Protocol.response_cached r1);
          check bool "second cached" true (Protocol.response_cached r2);
          let payload r =
            match Protocol.response_result r with
            | Ok j -> Json.to_string j
            | Error msg -> Alcotest.fail msg
          in
          check string "byte-identical result payload" (payload r1)
            (payload r2)))

let test_server_repeat_does_zero_engine_work () =
  with_server (fun addr ->
      let runs () =
        Metrics.counter_value (Metrics.counter "engine.compiled.runs")
      in
      let req =
        { (Protocol.default_request Protocol.Analyze) with
          Protocol.program = Some "fig7";
          machines = [ "origin2000"; "exemplar" ] }
      in
      let before = runs () in
      let r1 = Result.get_ok (Client.one_shot addr req) in
      check bool "first request ok" true
        (Result.is_ok (Protocol.response_result r1));
      let after_first = runs () in
      check bool "the miss did engine work" true (after_first > before);
      let r2 = Result.get_ok (Client.one_shot addr req) in
      check bool "second cached" true (Protocol.response_cached r2);
      check int "the hit did zero engine work" after_first (runs ()))

(* Every executing miss runs the engine once per program it executes —
   analyze, simulate and predict at the exact budget stream one run into
   both machines, the reuse budget takes one capture, the analytic
   budget runs nothing, and optimize simulates its input and, when the
   pipeline changed it, its output — and every payload equals the one a
   direct simulation and {!Bw_exec.Evaluate} give.  Inputs: two registry
   programs and one generated program sent as inline source, each with
   the engine runs its optimize takes: the pipeline returns read_loop
   unchanged and rewrites the other two. *)
let test_server_miss_runs_engine_per_program () =
  let machine_names = [ "origin2000"; "exemplar" ] in
  let inputs =
    [ ( { (Protocol.default_request Protocol.Analyze) with
          Protocol.program = Some "fig7" },
        2 );
      ( { (Protocol.default_request Protocol.Analyze) with
          Protocol.program = Some "read_loop" },
        1 );
      ( { (Protocol.default_request Protocol.Analyze) with
          Protocol.source =
            Some
              (Bw_ir.Pretty.program_to_string
                 (Bw_qa.Gen.generate ~seed:3 ~size:4)) },
        2 ) ]
  in
  let machines =
    List.map (fun n -> Result.get_ok (Bw_core.Loader.machine n)) machine_names
  in
  let f x = Json.Float x in
  let mb bytes = f (float_of_int bytes /. 1e6) in
  let row (r : Bw_exec.Run.result) =
    [ ("machine", Json.String r.Bw_exec.Run.machine.Bw_machine.Machine.name);
      ("seconds", f (Bw_exec.Run.seconds r));
      ("effective_bandwidth_mbs", f (Bw_exec.Run.effective_bandwidth r /. 1e6));
      ("memory_mb", mb (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache)) ]
  in
  let analyze_row (r : Bw_exec.Run.result) =
    let c = r.Bw_exec.Run.counters in
    let balance = Bw_exec.Run.program_balance r in
    let b = { Bw_core.Balance.per_boundary = balance } in
    let m = r.Bw_exec.Run.machine in
    let resource, ratio = Bw_core.Balance.worst_ratio b m in
    Json.Obj
      (row r
      @ [ ( "counters",
            Json.Obj
              [ ("flops", Json.Int c.Bw_machine.Counters.flops);
                ("loads", Json.Int c.Bw_machine.Counters.loads);
                ("stores", Json.Int c.Bw_machine.Counters.stores) ] );
          ("balance", Json.Obj (List.map (fun (k, v) -> (k, f v)) balance));
          ( "bound",
            Json.Obj
              [ ("resource", Json.String resource);
                ("demand_supply_ratio", f ratio);
                ( "cpu_utilisation",
                  f (Bw_core.Balance.cpu_utilisation_bound b m) ) ] ) ])
  in
  let traffic (r : Bw_exec.Run.result) =
    mb (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache)
  in
  (* (request, engine runs it takes, payload a direct computation gives) *)
  let cases ((input : Protocol.request), optimize_runs) =
    let req op = { input with Protocol.op; machines = machine_names } in
    let predict budget = { (req Protocol.Predict) with Protocol.budget } in
    let p = Result.get_ok (Protocol.load_program input) in
    let direct =
      List.map (fun machine -> Bw_exec.Run.simulate ~machine p) machines
    in
    let program = ("program", Json.String p.Bw_ir.Ast.prog_name) in
    let results rows = Json.Obj [ program; ("results", Json.List rows) ] in
    let evaluated name evaluate =
      Json.Obj
        [ program;
          ("budget", Json.String name);
          ( "results",
            Json.List
              (List.map
                 (fun machine ->
                   let e : Bw_exec.Evaluate.t = evaluate machine in
                   Json.Obj
                     [ ("machine", Json.String e.Bw_exec.Evaluate.machine_name);
                       ( "fidelity",
                         Json.String
                           (Bw_exec.Evaluate.fidelity_name
                              e.Bw_exec.Evaluate.fidelity) );
                       ("seconds", f e.Bw_exec.Evaluate.seconds);
                       ( "memory_mb",
                         f (Bw_exec.Evaluate.memory_bytes e /. 1e6) );
                       ( "binding_resource",
                         Json.String e.Bw_exec.Evaluate.binding_resource ) ])
                 machines) ) ]
    in
    let capture = Bw_exec.Run.capture p in
    (* optimize: the before/after figures are direct simulations of the
       input and of the pipeline's output on origin2000 *)
    let machine = List.hd machines in
    let p', _, _ = Bw_transform.Strategy.run_guarded ~machine p in
    let before = Bw_exec.Run.simulate ~machine p in
    let after = Bw_exec.Run.simulate ~machine p' in
    let optimized =
      [ ("memory_mb_before", traffic before);
        ("memory_mb_after", traffic after);
        ("seconds_before", f (Bw_exec.Run.seconds before));
        ("seconds_after", f (Bw_exec.Run.seconds after));
        ( "speedup",
          f (Bw_exec.Run.seconds before /. Bw_exec.Run.seconds after) );
        ( "behaviour_preserved",
          Json.Bool
            (Bw_exec.Interp.equal_observation before.Bw_exec.Run.observation
               after.Bw_exec.Run.observation) );
        ("optimized", Json.String (Bw_ir.Pretty.program_to_string p')) ]
    in
    [ (req Protocol.Analyze, 1, `Payload (results (List.map analyze_row direct)));
      ( req Protocol.Simulate,
        1,
        `Payload (results (List.map (fun r -> Json.Obj (row r)) direct)) );
      ( predict `Exact,
        1,
        `Payload
          (evaluated "exact" (fun machine ->
               Bw_exec.Evaluate.of_result (Bw_exec.Run.simulate ~machine p)))
      );
      ( predict `Reuse,
        1,
        `Payload
          (evaluated "reuse" (fun machine ->
               Bw_exec.Evaluate.of_reuse ~machine capture)) );
      ( predict `Analytic,
        0,
        `Payload
          (evaluated "analytic" (fun machine ->
               Bw_exec.Evaluate.of_program ~machine p)) );
      ( { (req Protocol.Optimize) with Protocol.machines = [ "origin2000" ] },
        optimize_runs,
        `Fields optimized ) ]
  in
  let cases = List.concat_map cases inputs in
  let answers =
    with_server (fun addr ->
        let client = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            List.map
              (fun (r, _, _) ->
                let runs0 = counter "engine.compiled.runs" in
                let response = Result.get_ok (Client.request client r) in
                check bool "a miss" false (Protocol.response_cached response);
                match Protocol.response_result response with
                | Ok payload -> (payload, counter "engine.compiled.runs" - runs0)
                | Error msg -> Alcotest.fail msg)
              cases))
  in
  check int "engine runs: 4 per program outside optimize, plus optimize's"
    (List.fold_left (fun acc (_, runs) -> acc + 4 + runs) 0 inputs)
    (List.fold_left (fun acc (_, runs) -> acc + runs) 0 answers);
  List.iter2
    (fun ((r : Protocol.request), runs, expected) (payload, ran) ->
      let what =
        Printf.sprintf "%s %s" (Protocol.op_name r.Protocol.op)
          (Protocol.budget_name r.Protocol.budget)
      in
      check int (what ^ ": engine runs") runs ran;
      match expected with
      | `Payload e ->
        check string (what ^ " payload") (Json.to_string e)
          (Json.to_string payload)
      | `Fields fields ->
        List.iter
          (fun (field, v) ->
            check string (what ^ " " ^ field) (Json.to_string v)
              (match Json.member field payload with
              | Some got -> Json.to_string got
              | None -> Alcotest.failf "%s payload lacks %s" what field))
          fields)
    cases answers

let test_server_survives_malformed_requests () =
  with_server (fun addr ->
      let client = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let expect_error line =
            let r = Result.get_ok (Client.request_raw client line) in
            match Protocol.response_result r with
            | Ok _ -> Alcotest.fail ("server accepted: " ^ line)
            | Error msg ->
              check bool "structured one-line error" false
                (String.contains msg '\n')
          in
          expect_error "not json at all {{{";
          expect_error "{\"v\":1,\"op\":\"frobnicate\"}";
          expect_error "{\"v\":1,\"op\":\"analyze\"}";
          (* no program *)
          expect_error
            "{\"v\":1,\"op\":\"analyze\",\"program\":\"no_such_workload\"}";
          expect_error
            "{\"v\":1,\"op\":\"analyze\",\"program\":\"read_loop\",\
             \"machines\":[\"cray\"]}";
          (* ...and the same connection still serves valid requests *)
          let r =
            Result.get_ok
              (Client.request client (Protocol.default_request Protocol.Ping))
          in
          check bool "connection still alive" true
            (Result.is_ok (Protocol.response_result r))))

(* A program whose only work is a dead store optimizes to no work at
   all, so its speedup is infinite.  JSON has no infinity: the answer
   must still be a line the client parses, with the speedup as null. *)
let test_server_optimize_all_work_deleted () =
  let source =
    "program dead_store\n  real a[64]\nfor i = 1, 64\n  a[i] = 1.0\nend for\nend\n"
  in
  let req =
    { (Protocol.default_request Protocol.Optimize) with
      Protocol.source = Some source;
      machines = [ "origin2000" ] }
  in
  with_server (fun addr ->
      match Client.one_shot addr req with
      | Error msg -> Alcotest.failf "answer does not parse: %s" msg
      | Ok r -> (
        match Protocol.response_result r with
        | Error msg -> Alcotest.fail msg
        | Ok result ->
          check bool "seconds_after is zero" true
            (Json.member "seconds_after" result = Some (Json.Float 0.0));
          check bool "speedup is null" true
            (Json.member "speedup" result = Some Json.Null)))

(* Serve answers what `bwc optimize` answers.  nas_sp at scale 2 on
   origin-scaled is the pair where a fusion gate priced on the request's
   machine made serve keep 9.29 MB of traffic instead of 3.44 MB. *)
let test_handle_optimize_matches_cli () =
  let req =
    { (Protocol.default_request Protocol.Optimize) with
      Protocol.program = Some "nas_sp";
      scale = 2;
      machines = [ "origin-scaled" ] }
  in
  match (Protocol.load_program req, Protocol.resolve_machines req) with
  | Error msg, _ | _, Error msg -> Alcotest.fail msg
  | Ok p, Ok machines ->
    let result = Bw_serve.Handle.optimize req ~machines p in
    let cli, _, _ =
      Bw_transform.Strategy.run_guarded ~stages:Bw_transform.Strategy.default
        ~guard:Bw_transform.Guard.default_config ~machine:(List.hd machines) p
    in
    (match Json.member "memory_mb_after" result with
    | Some (Json.Float mb) -> check (Alcotest.float 1e-9) "MB after" 3.439104 mb
    | _ -> Alcotest.fail "no memory_mb_after");
    check bool "optimized program is the CLI's" true
      (Json.member "optimized" result
      = Some (Json.String (Bw_ir.Pretty.program_to_string cli)))

(* The search path of the shared optimize op, which `bwc optimize
   --fuse-search` takes: on the 18-loop dag4x16 the annealer's plan is
   committed, while the exact engine refuses an instance over its
   12-node limit and the fuse stage then fuses nothing. *)
let optimized_dag4x16 engine =
  let machine = Bw_machine.Machine.origin2000 in
  let p = Result.get_ok (Bw_core.Loader.load_program ~scale:1 "dag4x16") in
  let search = Bw_fusion.Search.default_config ~engine ~machine () in
  Bw_serve.Handle.optimized ~engine:`Compiled ~search ~machine p

let test_handle_optimized_anneal () =
  let o = optimized_dag4x16 Bw_fusion.Search.Anneal in
  (match o.Bw_serve.Handle.search with
  | Some (Ok st) -> check bool "plan accepted" true st.Bw_fusion.Search.accepted
  | Some (Error msg) -> Alcotest.failf "search failed: %s" msg
  | None -> Alcotest.fail "the search stage did not run");
  check int "fused loops" 13
    o.Bw_serve.Handle.report.Bw_transform.Strategy.fused_loops

let test_handle_optimized_exact_over_limit () =
  let o = optimized_dag4x16 Bw_fusion.Search.Exact in
  check bool "the search errs" true
    (match o.Bw_serve.Handle.search with Some (Error _) -> true | _ -> false);
  check int "fused loops" 0
    o.Bw_serve.Handle.report.Bw_transform.Strategy.fused_loops

let test_server_metrics_endpoint () =
  with_server (fun addr ->
      ignore
        (Result.get_ok
           (Client.one_shot addr (Protocol.default_request Protocol.Ping)));
      let body = Result.get_ok (Client.fetch_metrics addr) in
      check bool "exposes serve_requests" true
        (let needle = "serve_requests" in
         let n = String.length needle and len = String.length body in
         let rec go i =
           i + n <= len && (String.sub body i n = needle || go (i + 1))
         in
         go 0))

(* The exposition carries five GC gauges read at scrape time; across a
   simulate miss all five are present and none falls. *)
let test_server_metrics_gc_gauges () =
  let names =
    [ "gc_minor_words"; "gc_major_words"; "gc_minor_collections";
      "gc_major_collections"; "gc_heap_words" ]
  in
  let scrape addr =
    let lines =
      String.split_on_char '\n' (Result.get_ok (Client.fetch_metrics addr))
    in
    List.map
      (fun name ->
        match
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ n; v ] when n = name -> float_of_string_opt v
              | _ -> None)
            lines
        with
        | Some v -> v
        | None -> Alcotest.failf "the scrape lacks %s" name)
      names
  in
  with_server (fun addr ->
      (* free what earlier tests left first, so that no sweep can
         shrink the heap between the two scrapes *)
      Gc.full_major ();
      let before = scrape addr in
      let req =
        { (Protocol.default_request Protocol.Simulate) with
          Protocol.program = Some "read_loop";
          machines = [ "origin2000"; "exemplar" ] }
      in
      let r = Result.get_ok (Client.one_shot addr req) in
      check bool "a simulate miss" true
        (Result.is_ok (Protocol.response_result r)
        && not (Protocol.response_cached r));
      let after = scrape addr in
      List.iter2
        (fun name (b, a) ->
          check bool (Printf.sprintf "%s: %.0f -> %.0f" name b a) true (a >= b))
        names
        (List.combine before after))

let test_server_drains_on_shutdown () =
  let config = Server.default_config (Server.Tcp ("127.0.0.1", 0)) in
  let server = Server.start config in
  let addr = Server.addr server in
  let r =
    Result.get_ok
      (Client.one_shot addr (Protocol.default_request Protocol.Shutdown))
  in
  check bool "shutdown acknowledged" true
    (Result.is_ok (Protocol.response_result r));
  Server.wait server;
  (match Client.connect addr with
  | client ->
    (* a connect may still succeed transiently on some kernels; the
       server must not answer on it *)
    Client.close client
  | exception _ -> ());
  check bool "drained" true true

let test_loadgen_against_live_server () =
  with_server (fun addr ->
      let spec =
        { (Loadgen.default_spec addr) with
          Loadgen.clients = 2;
          requests = 60;
          seed = 3 }
      in
      let stats = Loadgen.run spec in
      check int "every request answered" 60 stats.Loadgen.requests;
      check int "no errors" 0 stats.Loadgen.errors;
      check int "no transport failures" 0 stats.Loadgen.failed;
      check int "outcome counts are a partition" 60
        (stats.Loadgen.ok + stats.Loadgen.degraded + stats.Loadgen.errors);
      check bool "the mixed stream hits the cache" true
        (stats.Loadgen.hit_rate > 0.1);
      (* the stats JSON carries the v5 per-outcome fields *)
      let doc = Json.to_string (Loadgen.json_of_stats stats) in
      let contains needle =
        let n = String.length needle and len = String.length doc in
        let rec go i =
          i + n <= len && (String.sub doc i n = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun field ->
          check bool ("stats JSON has " ^ field) true
            (contains (Printf.sprintf "\"%s\":" field)))
        [ "ok"; "degraded"; "rejected"; "shed"; "failed"; "retried";
          "outcomes" ])

(* --- resilience: faults, deadlines, overload, drain -------------------------- *)

let test_fault_delay_action_parses () =
  Fun.protect
    ~finally:Fault.reset
    (fun () ->
      (match Fault.arm_spec "serve.compute.delay=delay:120@every:3" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      check bool "site armed" true
        (List.mem_assoc "serve.compute.delay" (Fault.armed ()));
      match Fault.arm_spec "serve.compute.delay=delay:0" with
      | Ok () -> Alcotest.fail "accepted a zero-millisecond delay"
      | Error _ -> ())

let test_protocol_resilience_envelope () =
  let req =
    { (Protocol.default_request Protocol.Analyze) with
      Protocol.program = Some "read_loop";
      deadline_ms = Some 1500 }
  in
  (match Protocol.request_of_json (Protocol.json_of_request req) with
  | Ok req' -> check bool "deadline_ms round-trips" true (req = req')
  | Error msg -> Alcotest.fail msg);
  (match
     Protocol.request_of_string "{\"v\":1,\"op\":\"ping\",\"deadline_ms\":0}"
   with
  | Ok _ -> Alcotest.fail "accepted a non-positive deadline"
  | Error _ -> ());
  let err =
    Protocol.error_response ~code:"overloaded" ~retry_after_ms:120 "busy"
  in
  check (Alcotest.option string) "error code survives" (Some "overloaded")
    (Protocol.response_error_code err);
  check (Alcotest.option int) "retry hint survives" (Some 120)
    (Protocol.response_retry_after_ms err);
  check bool "errors are not degraded" false (Protocol.response_degraded err);
  let ok =
    Protocol.ok_response ~degraded:"analytic" ~op:Protocol.Predict
      ~cached:false (Json.Obj [])
  in
  check bool "degraded tag readable" true (Protocol.response_degraded ok);
  check bool "analyze is idempotent" true (Protocol.idempotent req);
  check bool "shutdown is not" false
    (Protocol.idempotent (Protocol.default_request Protocol.Shutdown));
  check bool "predict is degradable" true (Protocol.degradable Protocol.Predict);
  check bool "simulate is not" false (Protocol.degradable Protocol.Simulate)

let test_pool_worker_crash_heals () =
  with_faults
    (fun () -> Fault.arm "pool.worker.crash" Fault.Raise (Fault.Nth 1))
    (fun () ->
      let before = counter "pool.worker.respawns" in
      let pool = Pool.create ~jobs:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          (* the first task claim kills its worker domain: only that
             task's future fails, and a replacement is spawned *)
          let doomed = Pool.submit pool (fun () -> 1) in
          (match Pool.await doomed with
          | Error (Pool.Worker_crashed _) -> ()
          | Error e ->
            Alcotest.fail
              ("expected Worker_crashed, got " ^ Printexc.to_string e)
          | Ok _ -> Alcotest.fail "task should have died with its worker");
          let futures =
            List.init 8 (fun i -> Pool.submit pool (fun () -> i * i))
          in
          List.iteri
            (fun i fut ->
              check int "healed pool still computes" (i * i)
                (Pool.await_exn fut))
            futures;
          check bool "respawn counted" true
            (counter "pool.worker.respawns" > before)))

let test_server_deadline_enforced () =
  with_server (fun addr ->
      with_faults
        (fun () ->
          Fault.arm "serve.compute.delay" (Fault.Delay 300) (Fault.Every 1))
        (fun () ->
          let before = counter "serve.deadline.expired" in
          let req =
            { (Protocol.default_request Protocol.Analyze) with
              Protocol.program = Some "read_loop";
              deadline_ms = Some 50 }
          in
          let r = Result.get_ok (Client.one_shot addr req) in
          (match Protocol.response_result r with
          | Ok _ ->
            Alcotest.fail "a 50 ms budget survived a 300 ms straggler"
          | Error _ ->
            check (Alcotest.option string) "structured code"
              (Some "deadline_exceeded")
              (Protocol.response_error_code r));
          check bool "expiry counted" true
            (counter "serve.deadline.expired" > before);
          (* the timed-out attempt never reached the cache: without the
             straggler the same work computes fresh, as a miss *)
          Fault.reset ();
          let r2 =
            Result.get_ok
              (Client.one_shot addr { req with Protocol.deadline_ms = None })
          in
          check bool "recovers" true
            (Result.is_ok (Protocol.response_result r2));
          check bool "the expired attempt was not cached" false
            (Protocol.response_cached r2)))

let test_server_degrades_then_sheds () =
  with_server
    ~tweak:(fun c ->
      { c with Server.jobs = Some 1; degrade_queue = 1; max_queue = 2 })
    (fun addr ->
      with_faults
        (fun () ->
          Fault.arm "serve.compute.delay" (Fault.Delay 600) (Fault.Every 1))
        (fun () ->
          let d0 = counter "serve.queue.degraded" in
          let s0 = counter "serve.queue.shed" in
          let blocker =
            (* optimize is NOT degradable: each occupies the pool *)
            { (Protocol.default_request Protocol.Optimize) with
              Protocol.program = Some "read_loop";
              machines = [ "origin2000" ];
              no_cache = true }
          in
          let spawn_blocker delay =
            Thread.create
              (fun () ->
                Thread.delay delay;
                ignore (Client.one_shot addr blocker))
              ()
          in
          let predict =
            { (Protocol.default_request Protocol.Predict) with
              Protocol.program = Some "read_loop";
              machines = [ "origin2000" ] }
          in
          (* two blockers on a one-worker pool: backlog 1, the degrade
             band — a degradable op answers inline from the analytic
             tier instead of queueing *)
          let t1 = spawn_blocker 0.0 in
          let t2 = spawn_blocker 0.06 in
          Thread.delay 0.2;
          let r = Result.get_ok (Client.one_shot addr predict) in
          check bool "degraded answer is an answer" true
            (Result.is_ok (Protocol.response_result r));
          check bool "tagged degraded" true (Protocol.response_degraded r);
          check bool "degraded never claims the cache" false
            (Protocol.response_cached r);
          check bool "degrade counted" true
            (counter "serve.queue.degraded" > d0);
          (* a third blocker fills the queue: backlog 2 = max_queue, so
             the next compute op of any kind is shed with a retry hint *)
          let t3 = spawn_blocker 0.0 in
          Thread.delay 0.15;
          let analyze =
            { (Protocol.default_request Protocol.Analyze) with
              Protocol.program = Some "read_loop" }
          in
          let r2 = Result.get_ok (Client.one_shot addr analyze) in
          (match Protocol.response_result r2 with
          | Ok _ -> Alcotest.fail "request admitted past max_queue"
          | Error _ ->
            check (Alcotest.option string) "structured code"
              (Some "overloaded")
              (Protocol.response_error_code r2));
          (match Protocol.response_retry_after_ms r2 with
          | Some ms -> check bool "positive retry hint" true (ms >= 50)
          | None -> Alcotest.fail "overloaded without a retry hint");
          check bool "shed counted" true (counter "serve.queue.shed" > s0);
          (* disarm the straggler so the backlog clears quickly *)
          Fault.reset ();
          List.iter Thread.join [ t1; t2; t3 ];
          (* the degraded answer never touched the result cache: the
             same predict at full fidelity is a miss, not a poisoned
             hit *)
          let r3 = Result.get_ok (Client.one_shot addr predict) in
          check bool "full fidelity once the storm passes" false
            (Protocol.response_degraded r3);
          check bool "degraded reply was not cached" false
            (Protocol.response_cached r3)))

let test_server_rejects_oversized_requests () =
  with_server
    ~tweak:(fun c -> { c with Server.max_request_bytes = 2048 })
    (fun addr ->
      let before = counter "serve.request.oversized" in
      let client = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let big = String.make 4096 'x' in
          let r = Result.get_ok (Client.request_raw client big) in
          (match Protocol.response_result r with
          | Ok _ -> Alcotest.fail "accepted an oversized request line"
          | Error _ ->
            check (Alcotest.option string) "structured code"
              (Some "request_too_large")
              (Protocol.response_error_code r));
          check bool "oversize counted" true
            (counter "serve.request.oversized" > before);
          (* the rest of the line was never read, so the connection is
             unsynchronisable and must be dropped *)
          match
            Client.request client (Protocol.default_request Protocol.Ping)
          with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "connection survived an oversized line"))

let test_server_watchdog_reaps_idle_connections () =
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout_s = 0.4 })
    (fun addr ->
      let before = counter "serve.watchdog.closed" in
      let client = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let r =
            Result.get_ok
              (Client.request client (Protocol.default_request Protocol.Ping))
          in
          check bool "alive before idling" true
            (Result.is_ok (Protocol.response_result r));
          (* go idle past the timeout: the watchdog shuts the half-dead
             connection down *)
          Thread.delay 1.2;
          (match
             Client.request client (Protocol.default_request Protocol.Ping)
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "idle connection survived the watchdog");
          check bool "close counted" true
            (counter "serve.watchdog.closed" > before);
          (* the server itself is unaffected *)
          let c2 = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c2)
            (fun () ->
              let r2 =
                Result.get_ok
                  (Client.request c2 (Protocol.default_request Protocol.Ping))
              in
              check bool "fresh connections served" true
                (Result.is_ok (Protocol.response_result r2)))))

(* An execution that fails at [serve.execute] fails only the request
   that started it, with a one-line error, and caches nothing: the same
   request then executes afresh and answers exactly what a direct
   simulation answers. *)
let test_server_execute_fault_caches_nothing () =
  let req =
    { (Protocol.default_request Protocol.Simulate) with
      Protocol.program = Some "read_loop";
      machines = [ "origin2000"; "exemplar" ] }
  in
  with_server (fun addr ->
      with_faults
        (fun () -> Fault.arm "serve.execute" Fault.Raise (Fault.Nth 1))
        (fun () ->
          let runs0 = counter "engine.compiled.runs" in
          let r1 = Result.get_ok (Client.one_shot addr req) in
          (match Protocol.response_result r1 with
          | Ok _ -> Alcotest.fail "the armed execution did not fail"
          | Error msg ->
            check bool "one-line error" false (String.contains msg '\n'));
          let r2 = Result.get_ok (Client.one_shot addr req) in
          check bool "the failed attempt was not cached" false
            (Protocol.response_cached r2);
          check int "the retry executed afresh" 2
            (Fault.hits "serve.execute");
          check int "and ran the engine once" 1
            (counter "engine.compiled.runs" - runs0);
          let direct =
            match (Protocol.load_program req, Protocol.resolve_machines req) with
            | Ok p, Ok machines -> Bw_serve.Handle.simulate req ~machines p
            | Error msg, _ | _, Error msg -> Alcotest.fail msg
          in
          match Protocol.response_result r2 with
          | Ok payload ->
            check string "retry = direct simulation" (Json.to_string direct)
              (Json.to_string payload)
          | Error msg -> Alcotest.fail msg))

let test_server_shutdown_under_load () =
  with_faults
    (fun () ->
      Fault.arm "serve.compute.delay" (Fault.Delay 200) (Fault.Every 1))
    (fun () ->
      let config =
        { (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
          Server.jobs = Some 1;
          cache_capacity = 64 }
      in
      let server = Server.start config in
      let addr = Server.addr server in
      let replies = Array.make 5 None in
      let threads =
        Array.init 5 (fun i ->
            Thread.create
              (fun () ->
                let req =
                  { (Protocol.default_request Protocol.Optimize) with
                    Protocol.program = Some "read_loop";
                    machines = [ "origin2000" ];
                    no_cache = true }
                in
                replies.(i) <- Some (Client.one_shot addr req))
              ())
      in
      (* every request is admitted and queued behind the straggler
         before the drain starts: admitted work must still complete *)
      Thread.delay 0.15;
      Server.request_shutdown server;
      Server.wait server;
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok reply) ->
            check bool
              (Printf.sprintf "request %d completed through the drain" i)
              true
              (Result.is_ok (Protocol.response_result reply))
          | Some (Error msg) -> Alcotest.fail msg
          | None -> Alcotest.fail "a client never returned")
        replies)

let test_resilient_client_survives_dropped_replies () =
  with_server (fun addr ->
      with_faults
        (fun () ->
          Fault.arm "serve.socket.close" Fault.Raise (Fault.Every 3))
        (fun () ->
          let cfg =
            { Client.default_retry_config with
              Client.timeout_s = 2.0;
              max_retries = 4 }
          in
          let rc = Client.resilient ~cfg ~seed:7 addr in
          Fun.protect
            ~finally:(fun () -> Client.resilient_close rc)
            (fun () ->
              let req =
                { (Protocol.default_request Protocol.Analyze) with
                  Protocol.program = Some "read_loop" }
              in
              (* every third reply is chopped mid-write and the
                 connection dropped; the resilient client reconnects
                 and retries until it has a whole answer *)
              for i = 1 to 10 do
                let r = Result.get_ok (Client.resilient_request rc req) in
                check bool
                  (Printf.sprintf "request %d answered" i)
                  true
                  (Result.is_ok (Protocol.response_result r))
              done;
              check bool "retries were needed" true
                (Client.retry_count rc > 0))))

(* Transport failures are retried while the budget lasts, whatever
   [max_retries] says: a request whose replies are dropped more times
   in a row than [max_retries] allows still gets its answer. *)
let test_resilient_client_outlasts_max_retries () =
  with_server (fun addr ->
      with_faults
        (fun () -> Fault.arm "serve.socket.close" Fault.Raise (Fault.Every 1))
        (fun () ->
          let cfg =
            { Client.default_retry_config with
              Client.timeout_s = 2.0;
              max_retries = 1;
              base_backoff_ms = 100;
              max_backoff_ms = 200 }
          in
          let lost = cfg.Client.max_retries + 3 in
          (* every reply is dropped until [lost] of them were; the
             client's backoff sleep leaves ample time to disarm *)
          let finished = Atomic.make false in
          let healer =
            Thread.create
              (fun () ->
                while
                  Fault.hits "serve.socket.close" < lost
                  && not (Atomic.get finished)
                do
                  Thread.delay 0.001
                done;
                Fault.disarm_all ())
              ()
          in
          let rc = Client.resilient ~cfg ~seed:7 addr in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set finished true;
              Thread.join healer;
              Client.resilient_close rc)
            (fun () ->
              let req =
                { (Protocol.default_request Protocol.Analyze) with
                  Protocol.program = Some "read_loop" }
              in
              match Client.resilient_request rc req with
              | Error msg -> Alcotest.failf "gave up: %s" msg
              | Ok r ->
                check bool "answered" true
                  (Result.is_ok (Protocol.response_result r));
                check int "one retry per dropped reply" lost
                  (Client.retry_count rc))))

(* A client that has never connected returns a connect error at once
   instead of waiting out its 30 s retry budget: nothing listens at a
   missing socket path, and waiting does not create a server.  The
   error is one line naming the path and the cause. *)
let test_resilient_client_fails_fast_without_server () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwc-missing-%d.sock" (Unix.getpid ()))
  in
  let rc = Client.resilient ~seed:7 (Server.Unix_sock path) in
  let t0 = Unix.gettimeofday () in
  let reply =
    Fun.protect
      ~finally:(fun () -> Client.resilient_close rc)
      (fun () ->
        Client.resilient_request rc (Protocol.default_request Protocol.Ping))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match reply with
  | Ok _ -> Alcotest.fail "a reply from a missing socket"
  | Error msg ->
    check string "the error names the path and the cause"
      (Printf.sprintf "cannot connect to unix:%s: %s" path
         (Unix.error_message Unix.ENOENT))
      msg);
  check bool (Printf.sprintf "returned in %.3f s, under 1 s" elapsed) true
    (elapsed < 1.0)

let test_chaos_load_run_is_clean () =
  with_server
    ~tweak:(fun c ->
      { c with Server.jobs = Some 2; degrade_queue = 4; max_queue = 8 })
    (fun addr ->
      with_faults
        (fun () ->
          Fault.arm "pool.worker.crash" Fault.Raise (Fault.Every 7);
          Fault.arm "serve.compute.delay" (Fault.Delay 100) (Fault.Every 5);
          Fault.arm "serve.socket.stall" (Fault.Delay 150) (Fault.Every 9);
          Fault.arm "serve.socket.close" Fault.Raise (Fault.Every 11))
        (fun () ->
          let respawns_before = counter "pool.worker.respawns" in
          let spec =
            { (Loadgen.default_spec addr) with
              Loadgen.clients = 2;
              requests = 80;
              seed = 11;
              chaos = true;
              timeout_s = 5.0;
              retries = 4 }
          in
          let stats = Loadgen.run spec in
          check int "every request accounted for" 80 stats.Loadgen.requests;
          (* THE chaos pass criterion: answered or cleanly rejected,
             nothing hung, nothing unexplained *)
          check int "zero unanswered requests" 0 stats.Loadgen.failed;
          check bool "most requests fully answered" true
            (stats.Loadgen.ok + stats.Loadgen.degraded >= 40);
          check bool "the storm actually killed workers" true
            (counter "pool.worker.respawns" > respawns_before)))

let suites =
  [ ( "serve.cache",
      [ Alcotest.test_case "hit and miss" `Quick test_cache_hit_and_miss;
        Alcotest.test_case "LRU eviction at capacity" `Quick
          test_cache_eviction_at_capacity;
        Alcotest.test_case "single-flight computes once" `Quick
          test_cache_single_flight;
        Alcotest.test_case "failure does not poison the key" `Quick
          test_cache_failure_does_not_poison ] );
    ( "serve.protocol",
      [ Alcotest.test_case "rejects garbage with one-line errors" `Quick
          test_protocol_rejects_garbage;
        Alcotest.test_case "request round-trips through JSON" `Quick
          test_protocol_roundtrip;
        Alcotest.test_case "resilience envelope round-trips" `Quick
          test_protocol_resilience_envelope;
        Alcotest.test_case "every catalogue machine resolves" `Quick
          test_protocol_machine_catalogue;
        Alcotest.test_case "distinct configs never collide" `Quick
          test_cache_keys_never_collide;
        Alcotest.test_case "key is content-addressed" `Quick
          test_cache_key_is_content_addressed ] );
    ( "serve.handle",
      [ Alcotest.test_case "the op's annealing search commits its plan" `Quick
          test_handle_optimized_anneal;
        Alcotest.test_case "the op reports an exact search over its limit"
          `Quick test_handle_optimized_exact_over_limit;
        Alcotest.test_case "optimize answers what bwc optimize does" `Quick
          test_handle_optimize_matches_cli ] );
    ( "serve.daemon",
      [ Alcotest.test_case "cache hit is byte-identical" `Quick
          test_server_hit_is_byte_identical;
        Alcotest.test_case
          "every executing miss runs the engine once per program it executes"
          `Quick test_server_miss_runs_engine_per_program;
        Alcotest.test_case "repeat request does zero engine work" `Quick
          test_server_repeat_does_zero_engine_work;
        Alcotest.test_case "malformed requests never kill it" `Quick
          test_server_survives_malformed_requests;
        Alcotest.test_case "optimize that deletes all work parses" `Quick
          test_server_optimize_all_work_deleted;
        Alcotest.test_case "metrics endpoint" `Quick
          test_server_metrics_endpoint;
        Alcotest.test_case "GC gauges present, none falls across a miss"
          `Quick test_server_metrics_gc_gauges;
        Alcotest.test_case "drains on shutdown" `Quick
          test_server_drains_on_shutdown;
        Alcotest.test_case "load generator: no errors, cache hits" `Quick
          test_loadgen_against_live_server ] );
    ( "serve.resilience",
      [ Alcotest.test_case "delay fault action parses" `Quick
          test_fault_delay_action_parses;
        Alcotest.test_case "worker crash heals the pool" `Quick
          test_pool_worker_crash_heals;
        Alcotest.test_case "deadlines expire into structured errors" `Quick
          test_server_deadline_enforced;
        Alcotest.test_case "overload degrades, then sheds" `Quick
          test_server_degrades_then_sheds;
        Alcotest.test_case "oversized request lines are bounded" `Quick
          test_server_rejects_oversized_requests;
        Alcotest.test_case "watchdog reaps idle connections" `Quick
          test_server_watchdog_reaps_idle_connections;
        Alcotest.test_case "a failed execution caches nothing" `Quick
          test_server_execute_fault_caches_nothing;
        Alcotest.test_case "shutdown under load answers everything" `Quick
          test_server_shutdown_under_load;
        Alcotest.test_case "resilient client survives dropped replies" `Quick
          test_resilient_client_survives_dropped_replies;
        Alcotest.test_case "transport failures are retried past max_retries"
          `Quick
          test_resilient_client_outlasts_max_retries;
        Alcotest.test_case "a missing socket fails fast" `Quick
          test_resilient_client_fails_fast_without_server;
        Alcotest.test_case "chaos load run: zero unanswered" `Quick
          test_chaos_load_run_is_clean ] ) ]
