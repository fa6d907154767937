open Bw_ir
module Parse = Bw_lang.Parse

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- generator ------------------------------------------------------------ *)

let test_gen_deterministic () =
  let p1 = Bw_qa.Gen.generate ~seed:42 ~size:6 in
  let p2 = Bw_qa.Gen.generate ~seed:42 ~size:6 in
  check bool "same seed, same program" true (Ast.equal_program p1 p2);
  let p3 = Bw_qa.Gen.generate ~seed:43 ~size:6 in
  check bool "different seed, different program" false
    (Ast.equal_program p1 p3)

let test_gen_validation () =
  Alcotest.check_raises "size 0"
    (Invalid_argument "Qa.Gen.generate: size must be >= 1") (fun () ->
      ignore (Bw_qa.Gen.generate ~seed:1 ~size:0))

let test_gen_checks_and_engines_agree () =
  for seed = 1 to 40 do
    let p = Bw_qa.Gen.generate ~seed ~size:6 in
    (match Check.check p with
    | Ok () -> ()
    | Error es ->
      Alcotest.failf "seed %d fails Check: %a" seed
        (Format.pp_print_list Check.pp_error)
        es);
    let a = Bw_exec.Interp.run p and b = Bw_exec.Compile.run p in
    if not (Bw_exec.Interp.close_observation ~tol:1e-9 a b) then
      Alcotest.failf "seed %d: interp and compile disagree" seed
  done

let test_gen_live_out_is_declared_and_written () =
  for seed = 1 to 40 do
    let p = Bw_qa.Gen.generate ~seed ~size:6 in
    check bool "nonempty live_out" true (p.Ast.live_out <> []);
    let written = Ast_util.vars_written p.Ast.body in
    check bool "some live-out is written" true
      (List.exists (fun v -> List.mem v written) p.Ast.live_out)
  done

let test_gen_nonaffine_reaches_unknown () =
  (* the generator's (i*i) mod n + 1 subscripts must drive the
     dependence test to Unknown in at least some programs *)
  let unknown_somewhere p =
    let rec loops stmts =
      List.concat_map
        (function
          | Ast.For l -> l :: loops l.Ast.body
          | Ast.If (_, t, e) -> loops t @ loops e
          | _ -> [])
        stmts
    in
    List.exists
      (fun l ->
        List.exists
          (fun (pi : Bw_analysis.Depend.pair_info) ->
            pi.Bw_analysis.Depend.answer = Bw_analysis.Depend.Unknown)
          (Bw_analysis.Depend.loop_pairs l))
      (loops p.Ast.body)
  in
  let hits = ref 0 in
  for seed = 1 to 60 do
    if unknown_somewhere (Bw_qa.Gen.generate ~seed ~size:6) then incr hits
  done;
  check bool "some program has an Unknown pair" true (!hits > 0)

(* --- oracle ---------------------------------------------------------------- *)

let test_oracle_clean_on_generated () =
  for seed = 1 to 25 do
    match Bw_qa.Oracle.test (Bw_qa.Gen.generate ~seed ~size:6) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_oracle_clean_on_registry () =
  List.iter
    (fun (e : Bw_workloads.Registry.entry) ->
      match Bw_qa.Oracle.test (e.build ~scale:1) with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: %s" e.Bw_workloads.Registry.name msg)
    Bw_workloads.Registry.all

let drop_demo =
  Parse.parse_program_exn
    {|
    program drop
      real a[10]
      real b[10]
      live_out a
      for i = 1, 10
        a[i] = 1.0
        b[i] = 2.0
      end for
      read(a[3])
    end
    |}

let test_drop_live_out_stores () =
  (match Bw_qa.Oracle.drop_live_out_stores drop_demo with
  | None -> Alcotest.fail "expected a corrupted program"
  | Some p' ->
    (* the a[i] assignment (inside the loop) and the read(a[3]) must both
       be gone; the b[i] assignment must survive *)
    let written = Ast_util.vars_written p'.Ast.body in
    check bool "a no longer written" false (List.mem "a" written);
    check bool "b still written" true (List.mem "b" written));
  let no_live_stores =
    { drop_demo with Ast.live_out = [] }
  in
  check bool "nothing to drop" true
    (Bw_qa.Oracle.drop_live_out_stores no_live_stores = None)

(* --- minimizer -------------------------------------------------------------- *)

let with_corrupt_fault f =
  Bw_obs.Fault.arm Bw_qa.Oracle.site Bw_obs.Fault.Corrupt
    (Bw_obs.Fault.Every 1);
  Fun.protect ~finally:Bw_obs.Fault.reset f

let test_minimizer_regression () =
  with_corrupt_fault (fun () ->
      let p = Bw_qa.Gen.generate ~seed:1 ~size:10 in
      check bool "armed fault makes the oracle fail" true
        (Bw_qa.Oracle.fails p);
      let small, stats =
        Bw_qa.Minimize.minimize ~still_fails:Bw_qa.Oracle.fails p
      in
      check bool "minimizer shrank the program" true
        (Ast_util.stmt_count small.Ast.body < Ast_util.stmt_count p.Ast.body);
      check bool "reproducer <= 10 top-level statements" true
        (List.length small.Ast.body <= 10);
      check bool "reproducer still fails the oracle" true
        (Bw_qa.Oracle.fails small);
      check bool "reproducer still checks" true
        (Result.is_ok (Check.check small));
      check bool "some candidates were evaluated" true
        (stats.Bw_qa.Minimize.candidates > 0);
      (* the static linter independently flags the same corruption *)
      let report = Bw_qa.Lint.check_program small in
      check bool "lint flags the reproducer" false (Bw_qa.Lint.ok report))

let test_minimized_repro_passes_when_disarmed () =
  let small =
    with_corrupt_fault (fun () ->
        let p = Bw_qa.Gen.generate ~seed:1 ~size:10 in
        fst (Bw_qa.Minimize.minimize ~still_fails:Bw_qa.Oracle.fails p))
  in
  (* without the fault the pipeline is honest again *)
  check bool "clean oracle accepts the reproducer" false
    (Bw_qa.Oracle.fails small)

(* --- lint ------------------------------------------------------------------- *)

let test_lint_registry_clean () =
  List.iter
    (fun (r : Bw_qa.Lint.report) ->
      if not (Bw_qa.Lint.ok r) then
        Alcotest.failf "%a" Bw_qa.Lint.pp_report r)
    (Bw_qa.Lint.check_registry ())

let test_preserve_flags_dropped_store () =
  let after = Option.get (Bw_qa.Oracle.drop_live_out_stores drop_demo) in
  let vs = Bw_analysis.Preserve.lint ~before:drop_demo ~after in
  check bool "dropped live-out store flagged" true
    (List.exists
       (function
         | Bw_analysis.Preserve.Live_out_store_dropped "a" -> true
         | _ -> false)
       vs)

let test_preserve_flags_backward_dependence () =
  (* hand "fusion" that brings a[i] = ... and ... = a[i+1] into one
     loop: the read now sees the value one iteration too early *)
  let before =
    Parse.parse_program_exn
      {|
      program bad_fuse
        real a[20]
        real b[20]
        real c[20]
        live_out c
        for i = 1, 19
          a[i] = b[i] + 1.0
        end for
        for i = 1, 19
          c[i] = a[i+1]
        end for
      end
      |}
  in
  let after =
    Parse.parse_program_exn
      {|
      program bad_fuse
        real a[20]
        real b[20]
        real c[20]
        live_out c
        for i = 1, 19
          a[i] = b[i] + 1.0
          c[i] = a[i+1]
        end for
      end
      |}
  in
  let vs = Bw_analysis.Preserve.lint ~before ~after in
  check bool "new backward dependence flagged" true
    (List.exists
       (function
         | Bw_analysis.Preserve.Backward_dependence { array = "a"; distance; _ }
           ->
           distance < 0
         | _ -> false)
       vs);
  (* and the fusion legality judgement agrees: this pair is not fusable *)
  match (before.Ast.body, after.Ast.body) with
  | [ Ast.For l1; Ast.For l2 ], _ ->
    check bool "fusable rejects it" true
      (Result.is_error (Bw_analysis.Depend.fusable l1 l2))
  | _ -> Alcotest.fail "unexpected shape"

let test_preserve_accepts_identity () =
  let p = Bw_qa.Gen.generate ~seed:9 ~size:6 in
  check bool "identity lints clean" true
    (Bw_analysis.Preserve.lint ~before:p ~after:p = [])

(* --- init round-trip --------------------------------------------------------- *)

let test_init_roundtrip () =
  let open Bw_ir.Builder in
  let p =
    program "inits"
      ~decls:
        [ array ~init:(Ast.Init_hash 3) "a" [ 8 ];
          array ~init:(Ast.Init_lanes (Ast.Init_zero, 2)) "b" [ 8 ];
          array ~init:(Ast.Init_linear (0.5, 0.25)) "c" [ 8 ];
          scalar "s" ]
      ~live_out:[ "a" ]
      [ for_ "i" (int 1) (int 8) [ ("a" $. [ v "i" ]) <-- fl 1.5 ] ]
  in
  let printed = Format.asprintf "%a" Pretty.pp_program p in
  match Parse.parse_program printed with
  | Error e ->
    Alcotest.failf "re-parse failed: %a@.%s" Parse.pp_error e printed
  | Ok p' -> check bool "equal after round trip" true (Ast.equal_program p p')

let suites =
  [ ( "qa.gen",
      [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "validation" `Quick test_gen_validation;
        Alcotest.test_case "checks + engines agree" `Slow
          test_gen_checks_and_engines_agree;
        Alcotest.test_case "live-out written" `Quick
          test_gen_live_out_is_declared_and_written;
        Alcotest.test_case "non-affine reaches Unknown" `Quick
          test_gen_nonaffine_reaches_unknown ] );
    ( "qa.oracle",
      [ Alcotest.test_case "clean on generated" `Slow
          test_oracle_clean_on_generated;
        Alcotest.test_case "clean on registry" `Slow
          test_oracle_clean_on_registry;
        Alcotest.test_case "drop_live_out_stores" `Quick
          test_drop_live_out_stores ] );
    ( "qa.minimize",
      [ Alcotest.test_case "corrupt-fault regression" `Slow
          test_minimizer_regression;
        Alcotest.test_case "repro passes when disarmed" `Slow
          test_minimized_repro_passes_when_disarmed ] );
    ( "qa.lint",
      [ Alcotest.test_case "registry clean" `Slow test_lint_registry_clean;
        Alcotest.test_case "flags dropped store" `Quick
          test_preserve_flags_dropped_store;
        Alcotest.test_case "flags backward dependence" `Quick
          test_preserve_flags_backward_dependence;
        Alcotest.test_case "identity clean" `Quick
          test_preserve_accepts_identity ] );
    ( "qa.roundtrip",
      [ Alcotest.test_case "init forms" `Quick test_init_roundtrip ] )
  ]
