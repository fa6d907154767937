(* The analytic predictor and the tiered evaluator.

   The load-bearing claims: (1) registry-wide predicted-vs-simulated
   accuracy stays inside the documented envelope on three distinct
   machine geometries; (2) the predictor is total on generated programs
   and its traffic is monotone non-increasing in cache capacity; (3) the
   evaluator's tiers carry honest fidelity tags and tick the metrics
   counters; (4) the satellite accessors (Ir_stats symbolic trips,
   Reuse.miss_curve) behave. *)

open Bw_machine

let l2_machine kb =
  { Machine.origin2000 with
    Machine.name = Printf.sprintf "L2=%dKB" kb;
    caches =
      [ { Cache.size_bytes = 32 * 1024; line_bytes = 32; associativity = 2 };
        { Cache.size_bytes = kb * 1024; line_bytes = 128; associativity = 2 } ] }

(* --- registry envelope ------------------------------------------------------ *)

let test_registry_envelope () =
  Alcotest.(check bool)
    "validates on at least 3 machine variants" true
    (List.length Bw_core.Accuracy.default_machines >= 3);
  let rows = Bw_core.Accuracy.measure () in
  Alcotest.(check bool)
    "one row per (workload, machine)" true
    (List.length rows
    = List.length Bw_workloads.Registry.all
      * List.length Bw_core.Accuracy.default_machines);
  (match Bw_core.Accuracy.check rows with
  | [] -> ()
  | violations ->
    Alcotest.failf "%d envelope violation(s):@.%s" (List.length violations)
      (String.concat "\n" violations));
  (* The sharper claim the table's notes make: the *median* cell is
     within a few percent, not merely inside the worst-case bounds. *)
  Alcotest.(check bool)
    "median memory relative error under 5%" true
    (Bw_core.Accuracy.median_memory_rel_err rows < 0.05)

let test_streams_exact () =
  (* Streaming kernels have no reuse to model, so the prediction must
     agree with the simulator almost exactly, not just within envelope. *)
  let machine = Machine.origin2000 in
  List.iter
    (fun name ->
      let e = Option.get (Bw_workloads.Registry.find name) in
      let p = e.Bw_workloads.Registry.build ~scale:1 in
      let pred = Bw_analysis.Predict.predict ~machine p in
      let r = Bw_exec.Run.simulate ~machine p in
      let sim = float_of_int (Timing.memory_bytes r.Bw_exec.Run.cache) in
      let ratio = Bw_analysis.Predict.memory_bytes pred /. sim in
      if ratio < 0.98 || ratio > 1.02 then
        Alcotest.failf "%s: predicted/simulated memory ratio %.3f" name ratio)
    [ "write_loop"; "read_loop"; "stride_1w1r"; "stride_3w6r"; "dmxpy" ]

(* A scope just over a level's capacity: spread evenly over the sets,
   only the sets holding one line more than their ways thrash, so the
   analytic tier's hit share must track the simulator through the whole
   band from C to C (1 + 1/A).  Priced all-or-nothing, these cells came
   out 1.3-4x the simulated traffic, and col_sweep 32x. *)
let sweep_kernel n =
  Printf.sprintf
    "program sweep\n\
    \  real a[%d] = hash(3)\n\
    \  real acc[1] = zero\n\
    \  live_out acc\n\
     for t = 1, 4\n\
    \  for j = 1, %d\n\
    \    acc[1] = acc[1] + a[j]\n\
    \  end for\n\
     end for\n\
     end"
    n n

let test_capacity_transition () =
  let parse src =
    match Bw_lang.Parse.parse_program src with
    | Ok p -> p
    | Error e -> Alcotest.failf "%a" Bw_lang.Parse.pp_error e
  in
  let elems bytes = bytes / 8 in
  let l2 = 4 * 1024 * 1024 and l2_sets = 4 * 1024 * 1024 / (128 * 2) in
  let l1 = 1024 * 1024 in
  let cells =
    List.map
      (fun bytes ->
        (Printf.sprintf "sweep %d B" bytes, Machine.origin2000,
         parse (sweep_kernel (elems bytes))))
      [ l2; l2 + (16 * 1024); l2 + (l2_sets / 2 * 128) ]
    @ List.map
        (fun bytes ->
          (Printf.sprintf "sweep %d B" bytes, Machine.exemplar,
           parse (sweep_kernel (elems bytes))))
        [ l1; l1 + 4096; l1 * 5 / 4; l1 * 3 / 2 ]
    @ [ ( "col_sweep", Machine.origin2000,
          match Bw_lang.Parse.parse_file "../corpus/col_sweep.bw" with
          | Ok p -> p
          | Error msg -> Alcotest.fail msg ) ]
  in
  List.iter
    (fun (name, (machine : Machine.t), p) ->
      let pred =
        Bw_analysis.Predict.memory_bytes (Bw_analysis.Predict.predict ~machine p)
      in
      let r = Bw_exec.Run.simulate ~machine p in
      let sim = float_of_int (Timing.memory_bytes r.Bw_exec.Run.cache) in
      let ratio = pred /. sim in
      if Float.abs (ratio -. 1.0) > 0.01 then
        Alcotest.failf "%s on %s: predicted/simulated memory ratio %.3f" name
          machine.Machine.name ratio)
    cells

(* --- generated programs: totality and monotonicity -------------------------- *)

let qcheck_cases =
  let open QCheck in
  let arb_seed = make ~print:string_of_int Gen.(int_range 0 99) in
  [ Test.make ~count:100
      ~name:"predictor total; traffic monotone non-increasing in cache size"
      arb_seed
      (fun seed ->
        let p = Bw_qa.Gen.generate ~seed ~size:6 in
        let traffics =
          List.map
            (fun kb ->
              Bw_analysis.Predict.memory_bytes
                (Bw_analysis.Predict.predict ~machine:(l2_machine kb) p))
            [ 16; 64; 256; 1024; 4096 ]
        in
        List.for_all
          (fun t -> Float.is_finite t && t >= 0.0)
          traffics
        &&
        let rec mono = function
          | a :: (b :: _ as rest) ->
            (* growing the cache must never create traffic (tiny slack
               for float noise) *)
            b <= (a *. (1.0 +. 1e-9)) +. 1e-6 && mono rest
          | _ -> true
        in
        mono traffics);
    Test.make ~count:100 ~name:"evaluator analytic tier total on generators"
      arb_seed
      (fun seed ->
        let p = Bw_qa.Gen.generate ~seed:(seed + 1000) ~size:6 in
        let e = Bw_exec.Evaluate.of_program ~machine:Machine.exemplar p in
        e.Bw_exec.Evaluate.fidelity = Bw_exec.Evaluate.Analytic
        && Float.is_finite e.Bw_exec.Evaluate.seconds
        && e.Bw_exec.Evaluate.seconds >= 0.0) ]

(* --- tiered evaluator ------------------------------------------------------- *)

let test_evaluate_tiers () =
  let machine = Machine.origin2000 in
  let e = Option.get (Bw_workloads.Registry.find "fig7") in
  let p = e.Bw_workloads.Registry.build ~scale:1 in
  let analytic_before =
    Bw_obs.Metrics.counter_value
      (Bw_obs.Metrics.counter "evaluate.tier.analytic")
  in
  let a = Bw_exec.Evaluate.of_program ~machine p in
  let c = Bw_exec.Run.capture p in
  let r =
    Bw_exec.Evaluate.of_reuse ~machine
      (Bw_exec.Run.reuse_pass
         ~granularities:[ Bw_exec.Evaluate.reuse_granularity machine ]
         p)
  in
  let x = Bw_exec.Evaluate.of_result (Bw_exec.Run.replay ~machine c) in
  Alcotest.(check string) "analytic tag" "analytic"
    (Bw_exec.Evaluate.fidelity_name a.Bw_exec.Evaluate.fidelity);
  Alcotest.(check string) "reuse tag" "reuse"
    (Bw_exec.Evaluate.fidelity_name r.Bw_exec.Evaluate.fidelity);
  Alcotest.(check string) "exact tag" "exact"
    (Bw_exec.Evaluate.fidelity_name x.Bw_exec.Evaluate.fidelity);
  Alcotest.(check int) "analytic tier counter ticked" (analytic_before + 1)
    (Bw_obs.Metrics.counter_value
       (Bw_obs.Metrics.counter "evaluate.tier.analytic"));
  (* exact tier must agree with a direct simulation *)
  let direct = Bw_exec.Run.simulate ~machine p in
  Alcotest.(check (float 1e-12))
    "exact tier = Run.simulate seconds"
    (Bw_exec.Run.seconds direct)
    x.Bw_exec.Evaluate.seconds;
  (* the cheaper tiers approximate the exact one on this workload *)
  List.iter
    (fun (what, (t : Bw_exec.Evaluate.t)) ->
      let ratio =
        Bw_exec.Evaluate.memory_bytes t /. Bw_exec.Evaluate.memory_bytes x
      in
      if ratio < 0.5 || ratio > 2.0 then
        Alcotest.failf "%s tier memory off by %.2fx" what ratio)
    [ ("analytic", a); ("reuse", r) ]

let test_evaluate_capture () =
  let machine = Machine.exemplar in
  let e = Option.get (Bw_workloads.Registry.find "convolution") in
  let p = e.Bw_workloads.Registry.build ~scale:1 in
  let c = Bw_exec.Run.capture p in
  let r =
    Bw_exec.Evaluate.of_reuse ~machine
      (Test_trace_store.reuse_pass_of_capture
         ~granularities:[ Bw_exec.Evaluate.reuse_granularity machine ]
         c)
  in
  let x = Bw_exec.Evaluate.of_result (Bw_exec.Run.replay ~machine c) in
  Alcotest.(check bool) "reuse tier from capture" true
    (r.Bw_exec.Evaluate.fidelity = Bw_exec.Evaluate.Reuse_pass);
  Alcotest.(check (float 1e-12))
    "exact tier from capture = replay seconds"
    (Bw_exec.Run.seconds (Bw_exec.Run.replay ~machine c))
    x.Bw_exec.Evaluate.seconds

(* --- optimizer machine independence ------------------------------------------ *)

(* The machines `bwc --machine` and serve accept. *)
let cli_machines = List.map snd Bw_core.Loader.machines

(* No stage of the default pipeline reads the machine, so `bwc optimize`
   and serve return the same program whatever machine they name.  A
   machine-priced fusion gate broke this on 21 of these (program,
   machine) pairs, nas_sp@2 on origin-scaled among them. *)
let test_strategy_machine_independent () =
  let digest ?machine p =
    let q, _, _ = Bw_transform.Strategy.run_guarded ?machine p in
    Bw_ir.Digest.program q
  in
  List.iter
    (fun (name, p) ->
      let reference = digest p in
      List.iter
        (fun (m : Machine.t) ->
          if digest ~machine:m p <> reference then
            Alcotest.failf "%s: the optimizer's output on %s differs from \
                            origin2000's" name m.Machine.name)
        cli_machines)
    (Pins.corpus_programs ~corpus:"../corpus"
    @ Pins.registry_programs ~scale:1
    @ Pins.registry_programs ~scale:2
    @ Pins.dag_programs ()
    @ List.init 2000 (fun i ->
          let seed = i + 1 in
          (Printf.sprintf "gen%d" seed, Bw_qa.Gen.generate ~seed ~size:6)))

let test_cost_predicted_traffic () =
  let e = Option.get (Bw_workloads.Registry.find "fig4") in
  let p = e.Bw_workloads.Registry.build ~scale:1 in
  let n = List.length p.Bw_ir.Ast.body in
  let unfused = List.init n (fun i -> [ i ]) in
  match Bw_fusion.Cost.predicted_traffic p unfused with
  | Error msg -> Alcotest.failf "unfused plan rejected: %s" msg
  | Ok t ->
    Alcotest.(check bool) "positive traffic" true (t > 0.0);
    (* a malformed plan errors instead of raising *)
    (match Bw_fusion.Cost.predicted_traffic p [ [ 0 ] ] with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "incomplete plan accepted")

(* --- Ir_stats: the analytic tier's counts --------------------------------- *)

let test_ir_stats_tiled () =
  (* Tiling must not distort the flop count: the tiled nest runs the
     same iterations, and the interval-based trip estimator sees through
     the min(lo+tile-1, hi) upper bounds. *)
  let flops name =
    let e = Option.get (Bw_workloads.Registry.find name) in
    (Bw_transform.Ir_stats.of_program (e.Bw_workloads.Registry.build ~scale:1))
      .Bw_transform.Ir_stats.est_flops
  in
  Alcotest.(check (float 0.0)) "mm_jki" 65536.0 (flops "mm_jki");
  Alcotest.(check (float 0.0)) "mm_blocked" 65536.0 (flops "mm_blocked")

(* Where the analytic tier counts a program's flops, loads and stores
   exactly, which is every corpus program but the two whose work depends
   on run-time values (case_mix's branches, fft's stage loops), a pass
   span's predicted balance is the balance the simulator measures across
   the register boundary. *)
let test_ir_stats_register_balance () =
  let programs =
    List.filter
      (fun (name, _) -> not (List.mem name [ "case_mix.bw"; "fft.bw" ]))
      (Pins.corpus_programs ~corpus:"../corpus")
  in
  Alcotest.(check int) "corpus programs counted exactly" 12
    (List.length programs);
  List.iter
    (fun (name, p) ->
      let r = Bw_exec.Run.simulate ~machine:Machine.origin2000 p in
      let c = r.Bw_exec.Run.counters in
      let flops, loads, stores = Bw_analysis.Predict.counts p in
      let exact what counted predicted =
        Alcotest.(check (float 0.0))
          (name ^ " " ^ what) (float_of_int counted) predicted
      in
      exact "flops" c.Counters.flops flops;
      exact "loads" c.Counters.loads loads;
      exact "stores" c.Counters.stores stores;
      Alcotest.(check (float 0.0))
        (name ^ " balance")
        (List.assoc "L1-Reg" (Bw_exec.Run.program_balance r))
        (Bw_transform.Ir_stats.of_program p)
          .Bw_transform.Ir_stats.predicted_balance)
    programs

(* --- Reuse satellite accessors ----------------------------------------------- *)

let test_miss_curve () =
  let r = Reuse.create ~granularity:32 () in
  Alcotest.(check (list (pair int (float 0.0)))) "empty curve" []
    (Reuse.miss_curve r);
  (* two sweeps over 64 blocks: second sweep hits only at capacities
     >= footprint *)
  for _ = 1 to 2 do
    for i = 0 to 63 do
      Reuse.access r ~addr:(32 * i)
    done
  done;
  Alcotest.(check int) "footprint bytes" (64 * 32) (Reuse.footprint_bytes r);
  let curve = Reuse.miss_curve r in
  Alcotest.(check bool) "curve nonempty" true (curve <> []);
  let ratios = List.map snd curve in
  let rec mono = function
    | a :: (b :: _ as rest) -> b <= a +. 1e-12 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone non-increasing" true (mono ratios);
  let last_size, last_ratio = List.nth curve (List.length curve - 1) in
  Alcotest.(check bool) "last capacity holds the footprint" true
    (last_size >= Reuse.footprint_bytes r);
  Alcotest.(check (float 1e-9)) "at full capacity only cold misses remain"
    (float_of_int (Reuse.cold r) /. float_of_int (Reuse.total r))
    last_ratio;
  (* curve points agree with direct miss_ratio queries *)
  List.iter
    (fun (size, ratio) ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "curve point at %d B" size)
        (Reuse.miss_ratio r ~capacity_blocks:(size / 32))
        ratio)
    curve

(* --- cost ---------------------------------------------------------------- *)

(* One prediction of the corpus's largest program after the guarded
   pipeline, as [Layout.run] prices it.  Its minor-heap allocation
   repeats exactly from call to call; each budget is 10% above the words
   counted when it was set (12,848 on Origin2000, 12,814 with random
   pages; the predictor that described every group again at each
   enclosing loop took 59,604 and 59,570). *)
let test_nas_sp_predict_budget () =
  Bw_obs.Fault.reset ();
  let src =
    In_channel.with_open_bin "../corpus/nas_sp.bw" In_channel.input_all
  in
  let p =
    match Bw_lang.Parse.parse_program src with
    | Ok p -> p
    | Error e -> Alcotest.failf "%a" Bw_lang.Parse.pp_error e
  in
  let q, _, _ = Bw_transform.Strategy.run_guarded p in
  List.iter
    (fun (name, budget) ->
      let machine =
        match Bw_core.Loader.machine name with
        | Ok m -> m
        | Error msg -> Alcotest.fail msg
      in
      let predict () = Bw_analysis.Predict.predict ~machine q in
      ignore (predict ());
      let words = Gc.minor_words () in
      ignore (Sys.opaque_identity (predict ()));
      let used = Gc.minor_words () -. words in
      if used > budget then
        Alcotest.failf "one predict on %s allocated %.0f minor words, budget %.0f"
          name used budget)
    [ ("origin2000", 14_133.0); ("origin-rp", 14_095.0) ]

let suites =
  [ ( "predict.accuracy",
      [ Alcotest.test_case "registry envelope on 3 machines" `Quick
          test_registry_envelope;
        Alcotest.test_case "streaming kernels near-exact" `Quick
          test_streams_exact;
        Alcotest.test_case "capacity transition near-exact" `Quick
          test_capacity_transition ] );
    ( "predict.evaluate",
      [ Alcotest.test_case "tier tags and counters" `Quick test_evaluate_tiers;
        Alcotest.test_case "capture tiers" `Quick test_evaluate_capture;
        Alcotest.test_case "optimizer output machine-independent" `Quick
          test_strategy_machine_independent;
        Alcotest.test_case "Cost.predicted_traffic" `Quick
          test_cost_predicted_traffic ] );
    ( "predict.cost",
      [ Alcotest.test_case "nas_sp allocation budget" `Quick
          test_nas_sp_predict_budget ] );
    ( "predict.satellites",
      [ Alcotest.test_case "Ir_stats sees through tiling" `Quick
          test_ir_stats_tiled;
        Alcotest.test_case "Ir_stats balance is the register balance" `Quick
          test_ir_stats_register_balance;
        Alcotest.test_case "Reuse.miss_curve" `Quick test_miss_curve ] );
    ( "predict.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases ) ]
