(* The .bw surface-language front end and the data-layout pass.

   - positioned parser: accepts the .bw grammar, reports every
     diagnostic with an exact line and column (pinned strings below);
   - round trip: generated programs print and re-parse to an equal AST
     (QCheck over 100 seeds);
   - golden renderer: deterministic, byte-identical re-rendering;
   - layout pass: padding/splitting/transposition preserve observable
     behaviour (differential validation + Preserve lint) and cut
     simulated memory traffic on random-page-placement machines. *)

open Bw_ir
module Parse = Bw_lang.Parse
module Layout = Bw_transform.Layout

let check = Alcotest.check

(* --- the positioned parser ------------------------------------------------ *)

let parse_ok src =
  match Parse.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" (Parse.error_to_string e)

let expect_error src expected =
  match Parse.parse_program src with
  | Ok _ -> Alcotest.failf "expected %S, parse succeeded" expected
  | Error e ->
    check Alcotest.string "pinned rendering" expected (Parse.error_to_string e)

let test_accepts_grammar () =
  let p =
    parse_ok
      "program two\n\
      \  real a[8] = hash(1)\n\
      \  real s\n\
      \  live_out s\n\
       for i = 1, 8\n\
      \  if (s > 2.0 and a[i] < 4.0)\n\
      \    s = s + a[i]\n\
      \  end if\n\
       end for\n\
       print s\n\
       end"
  in
  check Alcotest.string "name" "two" p.Ast.prog_name;
  check Alcotest.int "stmts" 2 (List.length p.Ast.body)

let test_error_positions () =
  (* every diagnostic is one line with an exact line:column anchor *)
  expect_error "program p\n  real a[4]\n  live_out a\na[1] = b\nend"
    "4:8: undeclared variable 'b'";
  expect_error "program p\n  real a[4]\n  live_out a\nx[1] = 2.0\nend"
    "4:1: undeclared array 'x'";
  expect_error "program p\n  real a[4]\n  real s\n  live_out s\ns = a\nend"
    "5:5: array 'a' used without subscripts";
  expect_error "program p\n  real s\n  live_out s\ns[1] = 2.0\nend"
    "4:1: scalar 's' cannot be subscripted";
  expect_error "program p\n  real a[4,4]\n  live_out a\na[1] = 2.0\nend"
    "4:1: array 'a' has 2 dimension(s), found 1 subscript(s)";
  expect_error "program p\n  real a[4]\n  real a\n  live_out a\nend"
    "3:8: duplicate declaration of 'a'";
  expect_error "program p\n  real a[4]\n  live_out a, b\nend"
    "3:15: live_out name 'b' is not declared";
  expect_error
    "program p\n  real a[4]\n  live_out a\nfor i = 1, 4\n  i = 2\nend for\nend"
    "5:3: loop index 'i' cannot be assigned";
  expect_error
    "program p\n  real i\n  live_out i\nfor i = 1, 4\nend for\nend"
    "4:5: loop index 'i' shadows a declaration"

let test_lex_error_position () =
  expect_error "program p\n  real a[4]\n  live_out a\na[1] = @\nend"
    "4:8: unexpected character '@'"

let test_file_errors_are_total () =
  (match Parse.parse_file "/no/such/place.bw" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
    check Alcotest.bool "one line" false (String.contains msg '\n'));
  match Bw_core.Loader.load_program ~scale:1 "/no/such/place.bw" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> check Alcotest.bool "one line" false (String.contains msg '\n')

let test_parenthesized_conditions () =
  (* what pp_cond prints for nested and/or *)
  let p =
    parse_ok
      "program p\n\
      \  real s\n\
      \  live_out s\n\
       if (((s > 1.0 and s < 2.0) or not (s = 0.0)))\n\
      \  s = s + 1.0\n\
       end if\n\
       end"
  in
  let expected =
    Builder.(
      program "p" ~decls:[ scalar "s" ] ~live_out:[ "s" ]
        [ if_
            (or_
               (and_ (v "s" >: fl 1.0) (v "s" <: fl 2.0))
               (not_ (v "s" =: fl 0.0)))
            [ sc "s" <-- (v "s" +: fl 1.0) ]
            [] ])
  in
  check Alcotest.bool "same AST" true (Ast.equal_program expected p)

(* --- print/parse round trip ----------------------------------------------- *)

let roundtrip_seed seed =
  let p = Bw_qa.Gen.generate ~seed ~size:6 in
  let printed = Pretty.program_to_string p in
  match Parse.parse_program printed with
  | Ok q -> Ast.equal_program p q
  | Error e ->
    Alcotest.failf "seed %d: printed form rejected: %s@.%s" seed
      (Parse.error_to_string e) printed

let roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"print/parse round trip"
    (QCheck.make QCheck.Gen.(map (fun n -> n + 1) (int_bound 9999)))
    roundtrip_seed

let test_float_literals_stay_floats () =
  (* "x = 0.0" must not re-parse as an integer assignment *)
  let p =
    Builder.program "zeros"
      ~decls:[ Builder.array "a" [ 4 ] ]
      ~live_out:[ "a" ]
      Builder.
        [ for_ "i" (int 1) (int 4) [ ("a" $. [ v "i" ]) <-- fl 0.0 ] ]
  in
  let printed = Pretty.program_to_string p in
  check Alcotest.bool "roundtrips equal" true
    (Ast.equal_program p (parse_ok printed));
  let fft = (Option.get (Bw_workloads.Registry.find "fft")).build ~scale:1 in
  check Alcotest.bool "fft roundtrips equal" true
    (Ast.equal_program fft (parse_ok (Pretty.program_to_string fft)))

(* --- golden rendering ------------------------------------------------------ *)

let test_golden_deterministic () =
  let p = (Option.get (Bw_workloads.Registry.find "mm_jki")).build ~scale:1 in
  let a = Bw_lang.Golden.render p and b = Bw_lang.Golden.render p in
  check Alcotest.string "byte-identical" a b;
  check Alcotest.bool "has sections" true
    (List.for_all
       (fun s ->
         let rec has i =
           i + String.length s <= String.length a
           && (String.sub a i (String.length s) = s || has (i + 1))
         in
         has 0)
       [ "== parse =="; "== check =="; "== analysis ==" ])

let test_golden_path_and_diff () =
  check Alcotest.string "path" "corpus/mm.golden"
    (Bw_lang.Golden.golden_path "corpus/mm.bw");
  (match Bw_lang.Golden.first_diff "a\nb\nc" "a\nB\nc" with
  | Some (2, "b", "B") -> ()
  | _ -> Alcotest.fail "expected a diff at line 2");
  check Alcotest.bool "equal -> None" true
    (Bw_lang.Golden.first_diff "x\ny" "x\ny" = None)

(* --- the data-layout pass -------------------------------------------------- *)

(* Small direct-mapped cache with pseudo-random page placement: the
   setting where strided and lane-padded traversals pay full lines. *)
let rp_machine =
  { Bw_machine.Machine.exemplar with
    Bw_machine.Machine.name = "exemplar-rp-8k";
    caches =
      [ { Bw_machine.Cache.size_bytes = 8 * 1024;
          line_bytes = 32;
          associativity = 1 } ];
    cache_bandwidths = [ 560e6 ];
    paging = Bw_machine.Machine.Random_pages { page_bytes = 1024; seed = 11 } }

let simulated_traffic p =
  let r = Bw_exec.Run.simulate ~machine:rp_machine p in
  Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache

(* inner loop walks the slow subscript of m: transpose territory *)
let col_sweep_src =
  "program col_sweep\n\
  \  real m[8,1024] = hash(7)\n\
  \  real acc[1] = zero\n\
  \  live_out acc\n\
   for t = 1, 8\n\
  \  for i = 1, 8\n\
  \    for j = 1, 1024\n\
  \      acc[1] = acc[1] + m[i,j]\n\
  \    end for\n\
  \  end for\n\
   end for\n\
   end"

(* four lanes packed per element, two of them hot: AoS -> SoA territory *)
let aos_stream_src =
  "program aos_stream\n\
  \  real p[4,4096] = linear(0, 0.125)\n\
  \  real s[1] = zero\n\
  \  live_out s\n\
   for t = 1, 4\n\
  \  for i = 1, 4096\n\
  \    s[1] = s[1] + p[1,i] * p[2,i]\n\
  \  end for\n\
   end for\n\
   end"

let assert_behaviour_preserved ~before ~after =
  (match Bw_transform.Guard.validate_pair ~before ~after () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "differential validation failed: %s" msg);
  match Bw_analysis.Preserve.lint ~before ~after with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "preserve lint flagged: %a" Bw_analysis.Preserve.pp_violation
      v

let test_layout_reduces_traffic_transpose () =
  let p = parse_ok col_sweep_src in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "transposed m" true
    (List.exists (function Layout.Transpose { array = "m" } -> true | _ -> false)
       actions);
  (match Check.check p' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transformed program fails Check");
  assert_behaviour_preserved ~before:p ~after:p';
  let before = simulated_traffic p and after = simulated_traffic p' in
  if not (float_of_int after < 0.8 *. float_of_int before) then
    Alcotest.failf "no traffic win: %d -> %d bytes" before after

let test_layout_reduces_traffic_split () =
  let p = parse_ok aos_stream_src in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "split p" true
    (List.exists
       (function Layout.Split { array = "p"; lanes = 4 } -> true | _ -> false)
       actions);
  (match Check.check p' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transformed program fails Check");
  assert_behaviour_preserved ~before:p ~after:p';
  let before = simulated_traffic p and after = simulated_traffic p' in
  if not (float_of_int after < 0.8 *. float_of_int before) then
    Alcotest.failf "no traffic win: %d -> %d bytes" before after

let test_pad_extends_last_dim_only () =
  let p = parse_ok aos_stream_src in
  let p' =
    match Layout.apply p (Layout.Pad { array = "p"; extra = 3 }) with
    | Ok p' -> p'
    | Error msg -> Alcotest.failf "pad failed: %s" msg
  in
  (match Ast.find_decl p' "p" with
  | Some d -> check (Alcotest.list Alcotest.int) "dims" [ 4; 4099 ] d.Ast.dims
  | None -> Alcotest.fail "p vanished");
  (* column-major: existing offsets are untouched, so behaviour holds *)
  assert_behaviour_preserved ~before:p ~after:p';
  match Layout.apply p (Layout.Pad { array = "s"; extra = 1 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "padding a live-out array must be refused"

let test_layout_refuses_unsafe () =
  let p = parse_ok col_sweep_src in
  (match Layout.apply p (Layout.Split { array = "m"; lanes = 8 }) with
  | Error _ -> () (* lane subscript is a loop index, not a constant *)
  | Ok _ -> Alcotest.fail "split with non-constant lanes must be refused");
  (match Layout.apply p (Layout.Transpose { array = "nope" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown array must be refused");
  (* a written 2-D array must not be transposed *)
  let q =
    parse_ok
      "program w\n\
      \  real m[4,4] = zero\n\
      \  live_out m\n\
       for i = 1, 4\n\
      \  for j = 1, 4\n\
      \    m[i,j] = 1.0\n\
      \  end for\n\
       end for\n\
       end"
  in
  match Layout.apply q (Layout.Transpose { array = "m" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "transposing a written array must be refused"

(* The layout pass's analytic gate may miss a win, but what it commits
   must not lose on the exact simulator: over the corpus and the
   registry, on every machine a user can name, the output never moves
   more memory traffic than the input.  col_sweep's transpose on
   origin2000 (4.19 -> 24.98 MB) broke this while the predictor priced a
   scope one line over the L2 as if every revisit missed. *)
let test_layout_never_raises_traffic () =
  let programs =
    Pins.corpus_programs ~corpus:"../corpus" @ Pins.registry_programs ~scale:1
  in
  List.iter
    (fun (mname, machine) ->
      let traffic p =
        let r = Bw_exec.Run.simulate ~machine p in
        Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache
      in
      List.iter
        (fun (name, p) ->
          match Layout.run ~machine p with
          | _, [] -> ()
          | p', actions ->
            let before = traffic p and after = traffic p' in
            if after > before then
              Alcotest.failf "%s on %s: %s raises traffic %d -> %d bytes" name
                mname
                (String.concat ", " (List.map Layout.action_to_string actions))
                before after)
        programs)
    Bw_core.Loader.machines

(* Random page placement fills a cache's sets unevenly, so the analytic
   tier keeps pricing a scope over capacity as all misses there, and the
   transpose that pays on the simulator (81.78 -> 43.67 MB) still
   commits. *)
let test_layout_random_pages_transpose () =
  let p =
    match Bw_lang.Parse.parse_file "../corpus/col_sweep.bw" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let machine =
    match Bw_core.Loader.machine "origin-rp" with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  let _, actions = Layout.run ~machine p in
  check (Alcotest.list Alcotest.string) "col_sweep on origin-rp"
    [ "transpose m" ]
    (List.map Layout.action_to_string actions)

let test_layout_identity_when_nothing_applies () =
  let p =
    parse_ok
      "program tiny\n  real s\n  live_out s\ns = 1.0\nend"
  in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "unchanged" true (Ast.equal_program p p');
  check Alcotest.int "no actions" 0 (List.length actions)

(* [Layout.run] does not price pads.  A pad only makes one declaration
   larger, and the analytic tier that prices layout candidates never
   sees addresses, so it must never predict less traffic for the padded
   program: a pad could then never pass the gate.  If this ever fails,
   pads must be priced again ([Layout.candidates]).  Every array that
   may be padded (any non-live-out one) grows its last dimension by 1,
   or by 8 for a 1-D array. *)
let pad_lowering_traffic (name, p) =
  List.find_map
    (fun (mname, machine) ->
      let traffic p = Bw_analysis.Predict.(memory_bytes (predict ~machine p)) in
      let base = traffic p in
      List.find_map
        (fun d ->
          if Ast.is_array d && not (List.mem d.Ast.var_name p.Ast.live_out)
          then
            let extra = if List.length d.Ast.dims = 1 then 8 else 1 in
            match
              Layout.apply p (Layout.Pad { array = d.Ast.var_name; extra })
            with
            | Error msg ->
              Some (Printf.sprintf "%s: pad %s refused: %s" name d.var_name msg)
            | Ok padded ->
              let after = traffic padded in
              if after < base then
                Some
                  (Printf.sprintf "%s on %s: pad %s +%d lowers traffic %h -> %h"
                     name mname d.var_name extra base after)
              else None
          else None)
        p.Ast.decls)
    Pins.machines

let test_pads_never_lower_traffic () =
  let programs =
    Pins.corpus_programs ~corpus:"../corpus"
    @ Pins.registry_programs ~scale:1
    @ Pins.dag_programs ()
  in
  match List.find_map pad_lowering_traffic programs with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let pads_never_lower_traffic_prop =
  QCheck.Test.make ~count:100
    ~name:"generated programs: pads never lower traffic"
    (QCheck.make ~print:string_of_int QCheck.Gen.(1 -- 100_000))
    (fun seed ->
      let p = Bw_qa.Gen.generate ~seed ~size:6 in
      match pad_lowering_traffic (Printf.sprintf "gen%d" seed, p) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let suites =
  [ ( "lang.parse",
      [ Alcotest.test_case "accepts the .bw grammar" `Quick test_accepts_grammar;
        Alcotest.test_case "pinned error positions" `Quick test_error_positions;
        Alcotest.test_case "lex error position" `Quick test_lex_error_position;
        Alcotest.test_case "file errors are total" `Quick
          test_file_errors_are_total;
        Alcotest.test_case "parenthesized conditions" `Quick
          test_parenthesized_conditions;
        QCheck_alcotest.to_alcotest roundtrip_prop;
        Alcotest.test_case "float literals stay floats" `Quick
          test_float_literals_stay_floats ] );
    ( "lang.golden",
      [ Alcotest.test_case "deterministic rendering" `Quick
          test_golden_deterministic;
        Alcotest.test_case "paths and diffs" `Quick test_golden_path_and_diff ]
    );
    ( "transform.layout",
      [ Alcotest.test_case "transpose cuts random-page traffic" `Slow
          test_layout_reduces_traffic_transpose;
        Alcotest.test_case "AoS split cuts random-page traffic" `Slow
          test_layout_reduces_traffic_split;
        Alcotest.test_case "pad extends the last dimension" `Quick
          test_pad_extends_last_dim_only;
        Alcotest.test_case "unsafe rewrites are refused" `Quick
          test_layout_refuses_unsafe;
        Alcotest.test_case "identity when nothing applies" `Quick
          test_layout_identity_when_nothing_applies;
        Alcotest.test_case "never raises simulated traffic" `Quick
          test_layout_never_raises_traffic;
        Alcotest.test_case "random pages still transpose col_sweep" `Quick
          test_layout_random_pages_transpose;
        Alcotest.test_case "pads never lower predicted traffic" `Quick
          test_pads_never_lower_traffic;
        QCheck_alcotest.to_alcotest ~long:false pads_never_lower_traffic_prop ]
    ) ]
