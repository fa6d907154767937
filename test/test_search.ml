open Bw_fusion

let check = Alcotest.check
let bool = Alcotest.bool

let machine = Bw_machine.Machine.origin2000

let cfg ?(engine = Search.Anneal) ?(seed = 1) () =
  Search.default_config ~engine ~machine ~seed ()

(* a cheap annealing config for property tests: tiny instances converge
   long before the default 2x1300 step budget *)
let quick_cfg ?(seed = 1) () =
  { (cfg ~seed ()) with Search.restarts = 1; Search.steps = 250 }

let plan_exn c p =
  match Search.plan c p with
  | Ok (plan, st) -> (plan, st)
  | Error e -> Alcotest.fail e

let small_dag ~seed ~loops =
  Bw_workloads.Dag_family.generate ~seed ~loops ~n:1024

(* --- Exact oracle --------------------------------------------------------- *)

(* On every instance small enough for the set-partition DP, annealing
   must land on the DP's optimum and the sweep baseline must stay within
   a bounded (and logged) factor of it. *)
let test_exact_oracle_agreement () =
  List.iter
    (fun (seed, loops) ->
      let p = small_dag ~seed ~loops in
      let _, exact = plan_exn (cfg ~engine:Search.Exact ()) p in
      let _, anneal = plan_exn (cfg ()) p in
      check bool
        (Printf.sprintf "dag%dx%d: exact within limit" seed loops)
        true
        (exact.Search.nodes <= (cfg ()).Search.exact_limit);
      let matches =
        anneal.Search.objective <= exact.Search.objective *. 1.000001
      in
      if not matches then
        Alcotest.failf "dag%dx%d: anneal %.0f > exact optimum %.0f" seed
          loops anneal.Search.objective exact.Search.objective;
      let factor = anneal.Search.greedy_objective /. exact.Search.objective in
      Printf.printf "dag%dx%d: sweep/exact factor %.3f\n" seed loops factor;
      check bool
        (Printf.sprintf "dag%dx%d: sweep within 2x of optimum" seed loops)
        true (factor <= 2.0))
    [ (1, 6); (2, 6); (1, 8); (2, 8); (3, 8); (1, 10) ]

let test_exact_refuses_large () =
  let p = small_dag ~seed:1 ~loops:30 in
  match Search.plan (cfg ~engine:Search.Exact ()) p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exact DP must refuse instances past exact_limit"

(* --- The baseline is the default pipeline's fuse stage --------------------- *)

(* The search's baseline plan, applied, is exactly the program the
   default pipeline's fuse stage builds, so every reported win is a win
   over what `bwc optimize` already does. *)
let test_baseline_is_fuse_stage () =
  let c = { (cfg ()) with Search.restarts = 0 } in
  let programs =
    Pins.corpus_programs ~corpus:"../corpus"
    @ Pins.registry_programs ~scale:1
    @ Pins.registry_programs ~scale:2
    @ Pins.dag_programs ()
    @ List.concat_map
        (fun size ->
          List.init 500 (fun i ->
              let seed = i + 1 in
              ( Printf.sprintf "gen%d/%d" seed size,
                Bw_qa.Gen.generate ~seed ~size )))
        [ 6; 12 ]
  in
  List.iter
    (fun (name, p) ->
      let _, st = plan_exn c p in
      match Bw_transform.Fuse.apply_plan p st.Search.greedy_plan with
      | Error e -> Alcotest.failf "%s: baseline plan does not apply: %s" name e
      | Ok q ->
        if not (Bw_ir.Ast.equal_program q (Bw_transform.Fuse.greedy p)) then
          Alcotest.failf "%s: baseline plan differs from Fuse.greedy" name)
    programs

(* --- Sweep vs anneal separation ---------------------------------------------- *)

(* The acceptance bar: annealing beats the default pipeline's sweep by
   >= 10% predicted traffic on at least three benchmark instances. *)
let test_anneal_beats_greedy () =
  let machine = Bw_core.Experiments.origin_scaled in
  let wins =
    List.filter
      (fun (_, p) ->
        let _, st = plan_exn { (cfg ()) with Search.machine } p in
        st.Search.traffic <= 0.9 *. st.Search.greedy_traffic)
      (Bw_workloads.Dag_family.instances ~scale:1)
  in
  check bool "anneal beats greedy by >= 10% on >= 3 instances" true
    (List.length wins >= 3)

(* --- Determinism ------------------------------------------------------------ *)

let test_deterministic () =
  let p = small_dag ~seed:4 ~loops:16 in
  let _, a = plan_exn (cfg ~seed:7 ()) p in
  let _, b = plan_exn (cfg ~seed:7 ()) p in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "same seed, same plan"
    a.Search.plan b.Search.plan;
  check (Alcotest.float 1e-6) "same objective" a.Search.objective
    b.Search.objective;
  check Alcotest.int "same candidate count" a.Search.candidates
    b.Search.candidates

let test_dag_family_deterministic () =
  let a = small_dag ~seed:9 ~loops:20 in
  let b = small_dag ~seed:9 ~loops:20 in
  check bool "same seed, same program" true (a = b);
  let c = small_dag ~seed:10 ~loops:20 in
  check bool "different seed, different program" true (a <> c)

let test_dag_of_name () =
  (match Bw_workloads.Dag_family.of_name "dag3x120" with
  | Some build ->
    let p = build ~scale:1 in
    check Alcotest.string "name round-trips" "dag3x120" p.Bw_ir.Ast.prog_name
  | None -> Alcotest.fail "dag3x120 should parse");
  check bool "junk rejected" true
    (Bw_workloads.Dag_family.of_name "dagger" = None);
  check bool "trailing junk rejected" true
    (Bw_workloads.Dag_family.of_name "dag1x2x3" = None);
  check bool "registry names unaffected" true
    (Bw_workloads.Dag_family.of_name "fig4" = None)

(* --- Cost memo --------------------------------------------------------------- *)

let test_signature_and_memo () =
  check Alcotest.string "signature shape" "0.1|2"
    (Cost.signature [ [ 0; 1 ]; [ 2 ] ]);
  check bool "signature separates plans" true
    (Cost.signature [ [ 0; 1 ]; [ 2 ] ] <> Cost.signature [ [ 0 ]; [ 1; 2 ] ]);
  let p = small_dag ~seed:1 ~loops:6 in
  let memo = Cost.memo () in
  let plan = List.init (List.length p.Bw_ir.Ast.body) (fun i -> [ i ]) in
  let t1 = Cost.predicted_traffic_memo ~machine ~memo p plan in
  let t2 = Cost.predicted_traffic_memo ~machine ~memo p plan in
  check bool "memo returns identical result" true (t1 = t2);
  check Alcotest.int "one miss" 1 (Cost.memo_misses memo);
  check Alcotest.int "one hit" 1 (Cost.memo_hits memo)

(* --- Properties ---------------------------------------------------------------- *)

(* Over random QA programs and small DAG instances: the annealed plan
   and the sweep baseline are structurally valid, and the committed
   program type-checks, passes the dependence-preservation lint, and
   agrees with the input under differential validation. *)
let qcheck_cases =
  let open QCheck in
  let programs seed =
    if seed mod 2 = 0 then Bw_qa.Gen.generate ~seed ~size:(4 + (seed mod 5))
    else small_dag ~seed ~loops:(6 + (seed mod 7))
  in
  let legal seed =
    let p = programs seed in
    let c = quick_cfg ~seed () in
    match Search.plan c p with
    | Error e -> Test.fail_reportf "plan failed on seed %d: %s" seed e
    | Ok (plan, st) -> (
      let g = Fusion_graph.build p in
      List.iter
        (fun (what, plan) ->
          match Cost.validate g plan with
          | Ok () -> ()
          | Error e ->
            Test.fail_reportf "invalid %s plan on seed %d: %s" what seed e)
        [ ("annealed", plan); ("sweep", st.Search.greedy_plan) ];
      match Search.run c p with
      | Error e -> Test.fail_reportf "run failed on seed %d: %s" seed e
      | Ok (p', _) -> (
        (match Bw_ir.Check.check p' with
        | Ok () -> ()
        | Error _ -> Test.fail_reportf "ill-typed output on seed %d" seed);
        if not (Bw_analysis.Preserve.lint_ok ~before:p ~after:p') then
          Test.fail_reportf "preserve lint failed on seed %d" seed;
        match
          Bw_transform.Guard.validate_pair ~trials:1 ~before:p ~after:p' ()
        with
        | Ok () -> true
        | Error e ->
          Test.fail_reportf "behaviour changed on seed %d: %s" seed e))
  in
  [ Test.make ~name:"annealed plans are legal and behaviour-preserving"
      ~count:12 (int_range 1 500) legal ]

let suites =
  [ ( "fusion.search",
      [ Alcotest.test_case "exact oracle agreement" `Quick
          test_exact_oracle_agreement;
        Alcotest.test_case "exact refuses large instances" `Quick
          test_exact_refuses_large;
        Alcotest.test_case "baseline is the fuse stage" `Quick
          test_baseline_is_fuse_stage;
        Alcotest.test_case "anneal beats greedy" `Slow test_anneal_beats_greedy;
        Alcotest.test_case "determinism" `Quick test_deterministic ] );
    ( "fusion.search.cost",
      [ Alcotest.test_case "signature and memo" `Quick test_signature_and_memo ] );
    ( "workloads.dag_family",
      [ Alcotest.test_case "determinism" `Quick test_dag_family_deterministic;
        Alcotest.test_case "of_name" `Quick test_dag_of_name ] );
    ( "fusion.search.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases ) ]
