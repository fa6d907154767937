(* Benchmark harness.

   Default run: regenerate every table/figure of the paper's evaluation
   (the experiment drivers of Bw_core.Experiments) and print them.
   Table generation fans out across domains (Bw_core.Harness) but the
   output order — and the table contents — match a serial run exactly.

     dune exec bench/main.exe                 -- all tables, full scale
     dune exec bench/main.exe -- --quick      -- all tables, small scale
     dune exec bench/main.exe -- --table fig3 -- one table
     dune exec bench/main.exe -- --jobs 4     -- cap the worker domains
     dune exec bench/main.exe -- --json       -- also write BENCH_results.json
                                                 (per-table spans included)
     dune exec bench/main.exe -- --out F.json -- write the JSON to F.json
     dune exec bench/main.exe -- --micro      -- Bechamel micro-benchmarks
                                                 of the core algorithms
     dune exec bench/main.exe -- --serve      -- serve load bench only
                                                 (--requests N, --clients N;
                                                 runs automatically with
                                                 --json, stats under "serve") *)

let default_json_path = "BENCH_results.json"

(* --- Bechamel micro-benchmarks -------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let cache_streaming =
    Test.make ~name:"cache: stream 64k accesses"
      (Staged.stage (fun () ->
           let c =
             Bw_machine.Cache.create
               [ { Bw_machine.Cache.size_bytes = 32 * 1024;
                   line_bytes = 32;
                   associativity = 2 } ]
           in
           for i = 0 to 65_535 do
             Bw_machine.Cache.read c ~addr:(8 * i) ~bytes:8
           done))
  in
  let interp_sum =
    let p = Bw_workloads.Simple_example.read_loop ~n:10_000 in
    Test.make ~name:"interp: 10k-element reduction"
      (Staged.stage (fun () -> ignore (Bw_exec.Interp.run p)))
  in
  let compiled_sum =
    let p = Bw_workloads.Simple_example.read_loop ~n:10_000 in
    Test.make ~name:"compile: 10k-element reduction"
      (Staged.stage (fun () -> ignore (Bw_exec.Compile.run p)))
  in
  let simulate_kernel =
    let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:2 ~n:5_000 in
    Test.make ~name:"simulate: 1w2r kernel on Origin2000"
      (Staged.stage (fun () ->
           ignore
             (Bw_exec.Run.simulate ~machine:Bw_machine.Machine.origin2000 p)))
  in
  let capture_kernel =
    let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:2 ~n:5_000 in
    Test.make ~name:"capture: 1w2r kernel trace"
      (Staged.stage (fun () -> ignore (Bw_exec.Run.capture p)))
  in
  let replay_kernel =
    let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:2 ~n:5_000 in
    let c = Bw_exec.Run.capture p in
    Test.make ~name:"replay: 1w2r capture on Origin2000"
      (Staged.stage (fun () ->
           ignore
             (Bw_exec.Run.replay ~machine:Bw_machine.Machine.origin2000 c)))
  in
  (* The before/after pair for the capture-once path: simulating two
     machines the old way re-executes the engine per machine; the new
     way captures once and fans the replays across domains. *)
  let two_machines_serial =
    let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:2 ~n:5_000 in
    Test.make ~name:"2 machines: simulate each (baseline)"
      (Staged.stage (fun () ->
           ignore (Bw_exec.Run.simulate ~machine:Bw_machine.Machine.origin2000 p);
           ignore (Bw_exec.Run.simulate ~machine:Bw_machine.Machine.exemplar p)))
  in
  let two_machines_fanout =
    let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:2 ~n:5_000 in
    let machines =
      [ Bw_machine.Machine.origin2000; Bw_machine.Machine.exemplar ]
    in
    (* jobs defaults to min(recommended_domain_count, machines): real
       domains on multicore hosts, serial replay on a 1-CPU box — where
       the win is still capture-once (one engine run instead of two). *)
    Test.make ~name:"2 machines: capture + parallel replay"
      (Staged.stage (fun () ->
           ignore (Bw_exec.Run.simulate_many ~machines p)))
  in
  let hyper_cut =
    let h =
      Bw_graph.Graph_gen.hypergraph ~seed:42 ~nodes:60 ~edges:120 ~max_arity:5
    in
    Test.make ~name:"hyper-graph min-cut (60 loops, 120 arrays)"
      (Staged.stage (fun () ->
           ignore (Bw_graph.Hyper_cut.min_cut h ~s:0 ~t:59)))
  in
  let fusion_plan =
    let p = Bw_workloads.Random_programs.generate ~seed:3 ~loops:8 ~arrays:5 ~n:32 in
    let g = Bw_fusion.Fusion_graph.build p in
    Test.make ~name:"bandwidth-minimal planning (8 loops)"
      (Staged.stage (fun () ->
           ignore (Bw_fusion.Bandwidth_minimal.multi_partition g)))
  in
  let strategy_pipeline =
    let p = Bw_workloads.Fig7.original ~n:2_000 in
    Test.make ~name:"full strategy pipeline on fig7"
      (Staged.stage (fun () -> ignore (Bw_transform.Strategy.run p)))
  in
  (* The tiered-evaluator pair: the same registry workload priced by the
     exact tier (replay of a pre-captured stream — the engine run is
     deliberately excluded, biasing the comparison *against* the
     analytic tier) and by the analytic tier (closed form, no execution
     at all).  The speedup between these two rows is the triage factor
     the tiered evaluator buys and is asserted >= 100x below. *)
  let mm =
    match Bw_workloads.Registry.find "mm_jki" with
    | Some e -> e.Bw_workloads.Registry.build ~scale:1
    | None -> assert false
  in
  let evaluate_exact =
    let c = Bw_exec.Run.capture mm in
    Test.make ~name:"evaluate mm_jki: exact tier (replay)"
      (Staged.stage (fun () ->
           ignore
             (Bw_exec.Run.replay ~machine:Bw_machine.Machine.origin2000 c)))
  in
  let evaluate_analytic =
    Test.make ~name:"evaluate mm_jki: analytic tier (closed form)"
      (Staged.stage (fun () ->
           ignore
             (Bw_exec.Evaluate.of_program
                ~budget:Bw_exec.Evaluate.Microseconds
                ~machine:Bw_machine.Machine.origin2000 mm)))
  in
  [ cache_streaming; interp_sum; compiled_sum; simulate_kernel;
    capture_kernel; replay_kernel; two_machines_serial; two_machines_fanout;
    hyper_cut; fusion_plan; strategy_pipeline; evaluate_exact;
    evaluate_analytic ]

(* Run the micro suite and return sorted (name, ns/run) estimates. *)
let micro_estimates () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let measured = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) measured []
  |> List.sort compare
  |> List.filter_map (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Some (name, est)
         | _ -> None)

let print_micro estimates =
  Format.printf "== micro-benchmarks (monotonic clock, ns/run) ==@.";
  List.iter
    (fun (name, est) -> Format.printf "%-50s %12.0f ns@." name est)
    estimates;
  (* Surface the tiered-evaluator triage factor explicitly: exact-tier
     replay ns / analytic-tier ns on the same registry workload. *)
  let find needle =
    List.find_opt
      (fun (name, _) ->
        String.length name >= String.length needle
        && List.exists
             (fun i -> String.sub name i (String.length needle) = needle)
             (List.init (String.length name - String.length needle + 1) Fun.id))
      estimates
  in
  match (find "exact tier (replay)", find "analytic tier (closed form)") with
  | Some (_, exact), Some (_, analytic) when analytic > 0.0 ->
    Format.printf "analytic tier speedup over exact replay: %.0fx@."
      (exact /. analytic)
  | _ -> ()

(* --- serve load bench ------------------------------------------------------ *)

(* Spin up an in-process server on a private Unix socket, drive it with
   the load generator (client domains with their own connections and a
   seeded mixed op stream), and report latency percentiles, throughput
   and the cache hit rate.  This is the service-level companion to the
   micro suite: it exercises the accept loop, the worker pool, the
   result cache and the simulate batcher together. *)
let serve_bench ~requests ~clients =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwc-bench-%d.sock" (Unix.getpid ()))
  in
  let server =
    Bw_serve.Server.start
      (Bw_serve.Server.default_config (Bw_serve.Server.Unix_sock sock))
  in
  Fun.protect
    ~finally:(fun () -> Bw_serve.Server.stop server)
    (fun () ->
      let spec =
        { (Bw_serve.Loadgen.default_spec (Bw_serve.Server.addr server)) with
          Bw_serve.Loadgen.requests;
          clients }
      in
      let stats = Bw_serve.Loadgen.run spec in
      Format.printf
        "== serve load bench ==@.%d requests / %d clients in %.2f s \
         (%.0f req/s)@.latency p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max \
         %.2f ms@.cache hit rate %.1f%%, %d errors (%d degraded, %d shed, \
         %d retried)@."
        stats.Bw_serve.Loadgen.requests stats.Bw_serve.Loadgen.clients
        stats.Bw_serve.Loadgen.wall_seconds
        stats.Bw_serve.Loadgen.throughput_rps stats.Bw_serve.Loadgen.p50_ms
        stats.Bw_serve.Loadgen.p90_ms stats.Bw_serve.Loadgen.p99_ms
        stats.Bw_serve.Loadgen.max_ms
        (100.0 *. stats.Bw_serve.Loadgen.hit_rate)
        stats.Bw_serve.Loadgen.errors stats.Bw_serve.Loadgen.degraded
        stats.Bw_serve.Loadgen.shed stats.Bw_serve.Loadgen.retried;
      stats)

(* --- entry point ---------------------------------------------------------- *)

let () =
  (* Deterministic fault injection for CI: BWC_FAULTS="site=raise@nth:1,..."
     arms sites like harness.table.fig3 before any table renders. *)
  (match Bw_obs.Fault.arm_from_env () with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "bench: bad BWC_FAULTS: %s@." msg;
    exit 1);
  let args = Array.to_list Sys.argv |> List.tl in
  let has flag = List.mem flag args in
  let value_of flag =
    let rec go = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let json = has "--json" || value_of "--out" <> None in
  let json_path =
    Option.value (value_of "--out") ~default:default_json_path
  in
  let micro =
    if has "--micro" || json then begin
      let estimates = micro_estimates () in
      print_micro estimates;
      estimates
    end
    else []
  in
  (* The serve load bench runs whenever the JSON artifact is written
     (its stats land under the "serve" key) or on explicit request. *)
  let serve_stats =
    if has "--serve" || json then begin
      let requests =
        match Option.bind (value_of "--requests") int_of_string_opt with
        | Some n when n >= 1 -> n
        | _ -> 1000
      in
      let clients =
        match Option.bind (value_of "--clients") int_of_string_opt with
        | Some n when n >= 1 -> n
        | _ -> 2
      in
      Some (serve_bench ~requests ~clients)
    end
    else None
  in
  if (has "--micro" || has "--serve") && not json then ()
  else begin
    let scale = if has "--quick" then 1 else 2 in
    let only = value_of "--table" in
    let experiments =
      match only with
      | None -> Bw_core.Experiments.all
      | Some w -> List.filter (fun (id, _) -> id = w) Bw_core.Experiments.all
    in
    (match (only, experiments) with
    | Some w, [] ->
      Format.eprintf "no experiment named %S; known ids:@." w;
      List.iter
        (fun (id, _) -> Format.eprintf "  %s@." id)
        Bw_core.Experiments.all;
      exit 1
    | _ -> ());
    let jobs =
      match value_of "--jobs" with
      | Some j -> (
        match int_of_string_opt j with
        | Some j when j >= 1 -> j
        | _ ->
          Format.eprintf "--jobs expects a positive integer, got %S@." j;
          exit 1)
      | None -> min (Bw_core.Harness.default_jobs ()) (List.length experiments)
    in
    (* Per-table spans ride along in the JSON document; tracing stays
       off for plain text runs so the tables themselves are unperturbed. *)
    if json then begin
      Bw_obs.Trace.reset ();
      Bw_obs.Trace.set_enabled true
    end;
    let outcomes = Bw_core.Harness.run ~jobs ~scale experiments in
    Bw_obs.Trace.set_enabled false;
    List.iter
      (fun o ->
        match o.Bw_core.Harness.status with
        | Bw_core.Harness.Ok ->
          print_string o.Bw_core.Harness.body;
          Format.printf "(generated in %.1f s)@.@." o.Bw_core.Harness.seconds
        | Bw_core.Harness.Error _ -> ())
      outcomes;
    (* Partial results are still written (and still parse); the exit
       code and a one-line summary per failed table carry the bad news. *)
    if json then begin
      let trace = Bw_obs.Trace.collect () in
      let serve = Option.map Bw_serve.Loadgen.json_of_stats serve_stats in
      let doc =
        Bw_core.Harness.json_of_results ~trace ?serve ~scale ~jobs ~micro
          outcomes
      in
      let oc = open_out json_path in
      output_string oc (Bw_core.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s (%d tables, %d micro estimates, %d spans)@."
        json_path (List.length outcomes) (List.length micro)
        (List.length trace)
    end;
    let failed =
      List.filter (fun o -> not (Bw_core.Harness.ok o)) outcomes
    in
    if failed <> [] then begin
      List.iter
        (fun o ->
          match o.Bw_core.Harness.status with
          | Bw_core.Harness.Error msg ->
            Format.eprintf "bench: table %s failed: %s@."
              o.Bw_core.Harness.id msg
          | Bw_core.Harness.Ok -> ())
        failed;
      exit 1
    end
  end
