(* The observability subsystem: span recording and collection across
   domains, the disabled no-op guarantee, the metrics registry, Chrome
   trace export through Json, the per-pass optimizer spans, the
   run-level cache/engine metrics, and the robust CLI program loader. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Trace = Bw_obs.Trace
module Metrics = Bw_obs.Metrics

let find_attr span key =
  List.assoc_opt key span.Trace.attrs

let spans_named name spans =
  List.filter (fun s -> s.Trace.name = name) spans

(* --- Trace ----------------------------------------------------------------- *)

let test_disabled_records_nothing () =
  Trace.reset ();
  Trace.set_enabled false;
  let h = Trace.start "ignored" in
  Trace.finish h;
  Trace.with_span "also ignored" (fun () -> ()) |> ignore;
  check int "no spans" 0 (List.length (Trace.collect ()))

let test_nesting_and_attrs () =
  Trace.reset ();
  Trace.with_enabled true (fun () ->
      Trace.with_span ~cat:"outer"
        ~attrs:[ ("k", Trace.Int 7) ]
        ~result_attrs:(fun r -> [ ("result", Trace.Int r) ])
        "parent"
        (fun () ->
          Trace.with_span "child" (fun () -> ()) |> ignore;
          42)
      |> ignore);
  let spans = Trace.collect () in
  check int "two spans" 2 (List.length spans);
  let parent = List.hd (spans_named "parent" spans) in
  let child = List.hd (spans_named "child" spans) in
  check int "parent at depth 0" 0 parent.Trace.depth;
  check int "child at depth 1" 1 child.Trace.depth;
  check bool "parent starts first" true
    (parent.Trace.start_us <= child.Trace.start_us);
  check bool "child within parent" true
    (child.Trace.start_us +. child.Trace.dur_us
    <= parent.Trace.start_us +. parent.Trace.dur_us +. 1e-6);
  check bool "start attr kept" true (find_attr parent "k" = Some (Trace.Int 7));
  check bool "result attr appended" true
    (find_attr parent "result" = Some (Trace.Int 42));
  check Alcotest.string "category" "outer" parent.Trace.cat

let test_exception_finishes_span () =
  Trace.reset ();
  (try
     Trace.with_enabled true (fun () ->
         Trace.with_span "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  match Trace.collect () with
  | [ s ] ->
    check Alcotest.string "span survived the raise" "boom" s.Trace.name;
    check bool "error attribute" true (find_attr s "error" <> None)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_multidomain_merge () =
  Trace.reset ();
  Trace.with_enabled true (fun () ->
      let worker tag () =
        Trace.with_span ("work:" ^ tag) (fun () -> ()) |> ignore
      in
      let d1 = Domain.spawn (worker "a") in
      let d2 = Domain.spawn (worker "b") in
      worker "main" ();
      Domain.join d1;
      Domain.join d2);
  let spans = Trace.collect () in
  check int "three spans merged" 3 (List.length spans);
  let tids =
    List.map (fun s -> s.Trace.tid) spans |> List.sort_uniq compare
  in
  check int "three distinct domains" 3 (List.length tids);
  check bool "sorted by start" true
    (let rec mono = function
       | a :: (b :: _ as rest) ->
         a.Trace.start_us <= b.Trace.start_us && mono rest
       | _ -> true
     in
     mono spans)

(* --- Metrics --------------------------------------------------------------- *)

let test_metrics_instruments () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check int "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  check (Alcotest.float 1e-9) "gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 1.0;
  Metrics.observe h 3.0;
  Metrics.observe h 1000.0;
  let snap = Metrics.snapshot () in
  let find name =
    List.find (fun s -> s.Metrics.metric = name) snap
  in
  (match (find "test.hist").Metrics.data with
  | Metrics.Hist_v v ->
    check int "hist count" 3 v.Metrics.count;
    check (Alcotest.float 1e-9) "hist sum" 1004.0 v.Metrics.sum;
    check int "three non-empty buckets" 3 (List.length v.Metrics.buckets)
  | _ -> Alcotest.fail "test.hist is not a histogram");
  (* same name, same kind -> same instrument; other kind -> error *)
  Metrics.incr (Metrics.counter "test.counter");
  check int "find-or-create" 6 (Metrics.counter_value c);
  (match Metrics.gauge "test.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  Metrics.reset ();
  check int "reset zeroes values" 0 (Metrics.counter_value c)

let test_simulate_publishes_metrics () =
  Metrics.reset ();
  let machine = Bw_machine.Machine.origin2000 in
  let p = Bw_workloads.Simple_example.read_loop ~n:10_000 in
  ignore (Bw_exec.Run.simulate ~machine p);
  let value name =
    match
      List.find_opt (fun s -> s.Metrics.metric = name) (Metrics.snapshot ())
    with
    | Some { Metrics.data = Metrics.Counter_v n; _ } -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  check int "one compiled run" 1 (value "engine.compiled.runs");
  check bool "elements counted" true (value "engine.compiled.elements" >= 10_000);
  check bool "trace flushed" true (value "engine.compiled.trace_flushes" >= 1);
  check bool "L1 saw hits" true (value "cache.L1.hits" > 0);
  check bool "memory fetched lines" true (value "cache.mem.lines_in" > 0)

let test_fusion_publishes_metrics () =
  Metrics.reset ();
  let p =
    Bw_workloads.Random_programs.generate ~seed:3 ~loops:8 ~arrays:5 ~n:32
  in
  let g = Bw_fusion.Fusion_graph.build p in
  ignore (Bw_fusion.Bandwidth_minimal.multi_partition g);
  let counters =
    List.filter_map
      (fun s ->
        match s.Metrics.data with
        | Metrics.Counter_v n -> Some (s.Metrics.metric, n)
        | _ -> None)
      (Metrics.snapshot ())
  in
  check bool "min-cut called" true
    (match List.assoc_opt "fusion.mincut.calls" counters with
    | Some n -> n > 0
    | None -> false)

(* --- optimizer pass spans -------------------------------------------------- *)

let all_passes =
  [ "pass:fuse"; "pass:contract"; "pass:shrink"; "pass:forward";
    "pass:store-elim"; "pass:contract-tidy" ]

let test_strategy_emits_pass_spans () =
  Trace.reset ();
  let p = Bw_workloads.Fig6.original ~n:64 in
  Trace.with_enabled true (fun () ->
      ignore (Bw_transform.Strategy.run p));
  let spans = Trace.collect () in
  (* exactly one span per pass, nested under its guard stage span, which
     nests under the optimize root *)
  List.iter
    (fun name ->
      match spans_named name spans with
      | [ s ] ->
        check int (name ^ " nested under guard") 2 s.Trace.depth;
        List.iter
          (fun key ->
            check bool
              (Printf.sprintf "%s has %s" name key)
              true
              (find_attr s key <> None))
          [ "before.statements"; "after.statements"; "before.distinct_arrays";
            "after.distinct_arrays"; "before.predicted_balance";
            "after.predicted_balance" ]
      | l -> Alcotest.failf "%s: expected 1 span, got %d" name (List.length l))
    all_passes;
  (* one committed guard span per stage (input + 6 passes) *)
  let guard_spans = List.filter (fun s -> s.Trace.cat = "guard") spans in
  check int "one guard span per stage" 7 (List.length guard_spans);
  List.iter
    (fun s ->
      check int (s.Trace.name ^ " under root") 1 s.Trace.depth;
      check bool (s.Trace.name ^ " committed") true
        (find_attr s "verdict" = Some (Trace.Str "committed")))
    guard_spans;
  check int "plus the optimize root" 1
    (List.length
       (List.filter
          (fun s -> s.Trace.cat = "optimizer")
          spans))

let test_disabled_strategy_traces_nothing () =
  Trace.reset ();
  Trace.set_enabled false;
  let p = Bw_workloads.Fig6.original ~n:64 in
  ignore (Bw_transform.Strategy.run p);
  check int "no spans without tracing" 0 (List.length (Trace.collect ()))

(* --- Ir_stats --------------------------------------------------------------- *)

let test_ir_stats_exact_on_constant_bounds () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program tiny
        real a[10]
        real b[10]
        live_out a
        for i = 1, 10
          a[i] = b[i] + 1.0
        end for
      end
      |}
  in
  let s = Bw_transform.Ir_stats.of_program p in
  check int "toplevel" 1 s.Bw_transform.Ir_stats.toplevel;
  check int "statements (loop + assign)" 2 s.Bw_transform.Ir_stats.statements;
  check int "two arrays" 2 s.Bw_transform.Ir_stats.distinct_arrays;
  check (Alcotest.float 1e-9) "10 adds" 10.0 s.Bw_transform.Ir_stats.est_flops;
  check (Alcotest.float 1e-9) "2 elements x 8B x 10 trips" 160.0
    s.Bw_transform.Ir_stats.est_bytes;
  check (Alcotest.float 1e-9) "balance 16 B/flop" 16.0
    s.Bw_transform.Ir_stats.predicted_balance

(* --- Chrome export --------------------------------------------------------- *)

let test_chrome_export_roundtrip () =
  Trace.reset ();
  Trace.with_enabled true (fun () ->
      Trace.with_span ~cat:"outer"
        ~attrs:
          [ ("note", Trace.Str "quotes \" and \\ and \nnewlines");
            ("n", Trace.Int 3); ("x", Trace.Float 1.5);
            ("ok", Trace.Bool true) ]
        "root"
        (fun () -> Trace.with_span "leaf" (fun () -> ()) |> ignore)
      |> ignore);
  let spans = Trace.collect () in
  let module J = Bw_core.Json in
  let doc = Bw_core.Trace_export.json_of_spans spans in
  let parsed = J.parse (J.to_string doc) in
  let events =
    match Option.bind (J.member "traceEvents" parsed) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing"
  in
  check int "two events" 2 (List.length events);
  let root =
    List.find
      (fun e -> J.member "name" e |> Option.get |> J.to_str = Some "root")
      events
  in
  check (Alcotest.option Alcotest.string) "complete event" (Some "X")
    (Option.bind (J.member "ph" root) J.to_str);
  check bool "duration present" true
    (Option.bind (J.member "dur" root) J.to_float <> None);
  let args = Option.get (J.member "args" root) in
  check (Alcotest.option Alcotest.string) "string attr with escapes survives"
    (Some "quotes \" and \\ and \nnewlines")
    (Option.bind (J.member "note" args) J.to_str);
  check (Alcotest.option Alcotest.int) "int attr" (Some 3)
    (Option.bind (J.member "n" args) (function J.Int i -> Some i | _ -> None))

(* --- Fault injection -------------------------------------------------------- *)

module Fault = Bw_obs.Fault

let test_fault_policies_deterministic () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  (* Nth fires exactly once, on the n-th crossing *)
  Fault.arm "t.nth" Fault.Raise (Fault.Nth 3);
  let fired =
    List.init 6 (fun _ -> Fault.check "t.nth" <> None)
  in
  check (Alcotest.list bool) "nth:3 fires only on hit 3"
    [ false; false; true; false; false; false ] fired;
  check int "hits counted" 6 (Fault.hits "t.nth");
  check int "one fire" 1 (Fault.fires "t.nth");
  (* Every fires on every n-th crossing *)
  Fault.arm "t.every" Fault.Corrupt (Fault.Every 2);
  let fired = List.init 6 (fun _ -> Fault.check "t.every" = Some Fault.Corrupt) in
  check (Alcotest.list bool) "every:2 fires on hits 2,4,6"
    [ false; true; false; true; false; true ] fired;
  (* Probability is a seeded draw: the same seed gives the same pattern *)
  let pattern () =
    Fault.arm "t.prob" Fault.Raise (Fault.Probability (0.5, 1234));
    List.init 32 (fun _ -> Fault.check "t.prob" <> None)
  in
  let a = pattern () and b = pattern () in
  check (Alcotest.list bool) "seeded pattern reproducible" a b;
  check bool "p=0.5 fires sometimes, not always" true
    (List.mem true a && List.mem false a);
  (* unarmed sites never fire but still count hits *)
  check bool "unarmed is silent" true (Fault.check "t.unarmed" = None);
  check int "unarmed hit counted" 1 (Fault.hits "t.unarmed")

let test_fault_cut_raises () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm "t.cut" Fault.Corrupt (Fault.Nth 1);
  (* cut treats Corrupt as Raise: sites without corruption semantics *)
  (match Fault.cut "t.cut" with
  | exception Fault.Injected site -> check Alcotest.string "site named" "t.cut" site
  | () -> Alcotest.fail "expected Injected");
  Fault.cut "t.cut" (* nth:1 already fired; further crossings pass *)

let test_fault_spec_parsing () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  (match
     Fault.arm_spec "guard.fuse=raise,guard.shrink=corrupt@nth:2,x=raise@every:3,y=raise@prob:0.25:77"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  check int "four sites armed" 4 (List.length (Fault.armed ()));
  check bool "fuse armed" true
    (List.mem_assoc "guard.fuse" (Fault.armed ()));
  (* malformed specs are Errors, not exceptions *)
  List.iter
    (fun spec ->
      match Fault.arm_spec spec with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "spec %S should be rejected" spec)
    [ "no-equals"; "s=explode"; "s=raise@nope"; "s=raise@nth:0";
      "s=raise@prob:2.0:1"; "s=raise@nth:x" ];
  (* arm validation *)
  (match Fault.arm "s" Fault.Raise (Fault.Nth 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "Nth 0 must be rejected");
  Fault.reset ();
  check int "reset disarms" 0 (List.length (Fault.armed ()));
  check int "reset zeroes hits" 0 (Fault.hits "guard.fuse")

let test_fault_sites_declared () =
  (* Forcing the libraries that declare sites at module init must make
     them visible to `bwc faults` via Fault.sites — the guard stages and
     the harness sites in particular. *)
  ignore Bw_transform.Strategy.stage_names;
  Bw_core.Harness.declare_fault_sites ();
  let names = List.map fst (Fault.sites ()) in
  List.iter
    (fun site ->
      check bool (site ^ " declared") true (List.mem site names))
    [ "guard.input"; "guard.fuse"; "guard.contract"; "guard.shrink";
      "guard.forward"; "guard.store-elim"; "guard.contract-tidy";
      "harness.worker" ]

(* --- Loader (CLI robustness) ------------------------------------------------ *)

let test_loader_errors_not_exceptions () =
  let load = Bw_core.Loader.load_program ~scale:1 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match load "no_such_workload_or_file" with
  | Error msg ->
    check bool "points at 'bwc list'" true (contains msg "bwc list")
  | Ok _ -> Alcotest.fail "unknown name must not load");
  (match load "/tmp" with
  | Error msg ->
    check bool "directory rejected" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "directory must not load");
  let bad = Filename.temp_file "bwc_test" ".bw" in
  let oc = open_out bad in
  output_string oc "this is not a program";
  close_out oc;
  (match load bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse failure must be an Error");
  Sys.remove bad;
  match load "fig6" with
  | Ok p -> check bool "registry still works" true (p.Bw_ir.Ast.body <> [])
  | Error e -> Alcotest.fail e

let suites =
  [ ( "obs.trace",
      [ Alcotest.test_case "disabled records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "nesting, attrs, results" `Quick
          test_nesting_and_attrs;
        Alcotest.test_case "exception finishes span" `Quick
          test_exception_finishes_span;
        Alcotest.test_case "multi-domain merge" `Quick test_multidomain_merge ] );
    ( "obs.metrics",
      [ Alcotest.test_case "instruments and snapshot" `Quick
          test_metrics_instruments;
        Alcotest.test_case "simulate publishes cache+engine" `Quick
          test_simulate_publishes_metrics;
        Alcotest.test_case "fusion publishes min-cut" `Quick
          test_fusion_publishes_metrics ] );
    ( "obs.passes",
      [ Alcotest.test_case "one span per pass with stats" `Quick
          test_strategy_emits_pass_spans;
        Alcotest.test_case "silent when disabled" `Quick
          test_disabled_strategy_traces_nothing;
        Alcotest.test_case "ir_stats exact on constants" `Quick
          test_ir_stats_exact_on_constant_bounds ] );
    ( "obs.export",
      [ Alcotest.test_case "chrome trace round-trip" `Quick
          test_chrome_export_roundtrip ] );
    ( "obs.fault",
      [ Alcotest.test_case "deterministic policies" `Quick
          test_fault_policies_deterministic;
        Alcotest.test_case "cut raises Injected" `Quick test_fault_cut_raises;
        Alcotest.test_case "spec parsing" `Quick test_fault_spec_parsing;
        Alcotest.test_case "sites declared" `Quick test_fault_sites_declared ] );
    ( "obs.loader",
      [ Alcotest.test_case "errors, never exceptions" `Quick
          test_loader_errors_not_exceptions ] )
  ]
