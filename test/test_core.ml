let check = Alcotest.check
let bool = Alcotest.bool

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* --- Table --------------------------------------------------------------- *)

let test_table_render () =
  let t =
    Bw_core.Table.make ~title:"t" ~header:[ "a"; "b" ]
      ~notes:[ "n1" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let s = Bw_core.Table.to_string t in
  check bool "title" true (String.length s > 0);
  check bool "contains row" true (contains ~affix:"longer" s);
  check bool "contains note" true (contains ~affix:"n1" s)

let test_table_formatters () =
  check Alcotest.string "f1" "1.5" (Bw_core.Table.f1 1.52);
  check Alcotest.string "mb_s" "312 MB/s" (Bw_core.Table.mb_s 312e6);
  check Alcotest.string "ms" "2.50 ms" (Bw_core.Table.ms 0.0025);
  check Alcotest.string "pct" "84%" (Bw_core.Table.pct 0.84)

(* --- Balance ---------------------------------------------------------------- *)

let test_machine_balance_row () =
  let row = Bw_core.Balance.of_machine Bw_machine.Machine.origin2000 in
  check Alcotest.(list string) "boundaries"
    [ "L1-Reg"; "L2-L1"; "Mem-L2" ]
    (List.map fst row.Bw_core.Balance.per_boundary)

let test_ratios_and_bound () =
  let machine = Bw_machine.Machine.origin2000 in
  let p = Bw_workloads.Simple_example.read_loop ~n:300_000 in
  let row = Bw_core.Balance.of_program ~machine p in
  let resource, ratio = Bw_core.Balance.worst_ratio row machine in
  check Alcotest.string "memory binds" "Mem-L2" resource;
  check bool "ratio ~10 (8 bytes/flop vs 0.8)" true (ratio > 8.0 && ratio < 12.0);
  let u = Bw_core.Balance.cpu_utilisation_bound row machine in
  check bool "bound ~1/ratio" true (Float.abs ((1.0 /. ratio) -. u) < 1e-9)

(* --- Experiments (smoke at tiny scale) ----------------------------------------- *)

let test_all_experiments_run () =
  List.iter
    (fun (id, f) ->
      let t = f ?scale:(Some 1) () in
      if t.Bw_core.Table.rows = [] then Alcotest.failf "%s: empty table" id)
    Bw_core.Experiments.all

let test_fig4_table_contents () =
  let t = Bw_core.Experiments.fig4 ~scale:1 () in
  match t.Bw_core.Table.rows with
  | [ unfused; ew; bw ] ->
    check Alcotest.string "unfused 20" "20" (List.nth unfused 1);
    check Alcotest.string "edge-weighted 8" "8" (List.nth ew 1);
    check Alcotest.string "bandwidth-minimal 7" "7" (List.nth bw 1);
    check Alcotest.string "edge weight of ew optimum" "2" (List.nth ew 2)
  | _ -> Alcotest.fail "expected three rows"

let test_fig3_shape () =
  let t = Bw_core.Experiments.fig3 ~scale:1 () in
  (* parse back "NNN MB/s" *)
  let value row col =
    match List.nth_opt row col with
    | Some cell -> float_of_string (List.hd (String.split_on_char ' ' cell))
    | None -> Alcotest.fail "missing cell"
  in
  let rows = t.Bw_core.Table.rows in
  let origin = List.map (fun r -> value r 1) rows in
  let lo = List.fold_left min infinity origin in
  let hi = List.fold_left max neg_infinity origin in
  check bool
    (Printf.sprintf "origin flat: %.0f..%.0f within 20%%" lo hi)
    true
    (hi /. lo < 1.25);
  (* the 3w6r row dips on the Exemplar *)
  let row_of name = List.find (fun r -> List.hd r = name) rows in
  let dip = value (row_of "3w6r") 2 in
  let typical = value (row_of "2w5r") 2 in
  check bool
    (Printf.sprintf "3w6r %.0f << 2w5r %.0f" dip typical)
    true
    (dip < 0.7 *. typical)

let test_fig8_speedup_band () =
  let t = Bw_core.Experiments.fig8 ~scale:1 () in
  List.iter
    (fun row ->
      let speedup = float_of_string (List.nth row 4) in
      check bool
        (Printf.sprintf "%s speedup %.2f in [1.5, 2.5]" (List.hd row) speedup)
        true
        (speedup > 1.5 && speedup < 2.5))
    t.Bw_core.Table.rows

let test_sp_utilisation_band () =
  let t = Bw_core.Experiments.sp_utilisation ~scale:1 () in
  let high =
    List.filter
      (fun row ->
        let cell = List.nth row 1 in
        let v = int_of_string (String.sub cell 0 (String.length cell - 1)) in
        v >= 84)
      t.Bw_core.Table.rows
  in
  check bool "at least 5 of 7 subroutines >= 84%" true (List.length high >= 5)

(* --- Regroup (extension) ---------------------------------------------------------- *)

let regroupable_program n =
  Bw_lang.Parse.parse_program_exn
    (Printf.sprintf
       {|
       program complexmul
         real re[%d] = hash(9)
         real im[%d] = hash(9)
         real outp[%d]
         live_out outp
         for i = 1, %d
           outp[i] = re[i] * re[i] + im[i] * im[i]
         end for
       end
       |}
       n n n n)

let test_regroup_candidates () =
  let p = regroupable_program 64 in
  check
    Alcotest.(list (pair string string))
    "re/im grouped" [ ("re", "im") ]
    (Bw_transform.Regroup.candidates p)

(* Co-access compares, per top-level statement, the multisets of
   subscript lists: a and b are read at the same offsets in a different
   order, c and d at different ones, and e and f (never referenced)
   are no candidates even though they agree everywhere. *)
let test_regroup_candidates_multiset () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program multiset
        real a[64] = hash(1)
        real b[64] = hash(1)
        real c[64] = hash(1)
        real d[64] = hash(1)
        real e[64] = hash(1)
        real f[64] = hash(1)
        real outp[64]
        live_out outp
        for i = 2, 63
          outp[i] = a[i] + a[i+1] + b[i+1] + b[i]
        end for
        for i = 2, 63
          outp[i] = outp[i] + c[i] + d[i-1]
        end for
      end
      |}
  in
  check
    Alcotest.(list (pair string string))
    "only a/b" [ ("a", "b") ]
    (Bw_transform.Regroup.candidates p)

let test_regroup_semantics () =
  let p = regroupable_program 128 in
  match Bw_transform.Regroup.regroup_pair p "re" "im" with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    Bw_ir.Check.check_exn p';
    let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
    check bool "identical behaviour" true
      (Bw_exec.Interp.equal_observation o1 o2);
    check bool "original decls gone" true
      (Bw_ir.Ast.find_decl p' "re" = None && Bw_ir.Ast.find_decl p' "im" = None)

let test_regroup_improves_locality () =
  (* 128-byte stride: separately the two arrays touch one L2 line per
     access each; interleaved, the pair shares a line *)
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program strided
        real re[65536] = hash(3)
        real im[65536] = hash(3)
        real s
        live_out s
        for i = 1, 4096
          s = s + re[i*16] * im[i*16]
        end for
      end
      |}
  in
  let p', pairs = Bw_transform.Regroup.regroup_all p in
  check Alcotest.int "one pair" 1 (List.length pairs);
  let machine = Bw_machine.Machine.origin2000 in
  let traffic q =
    Bw_machine.Timing.memory_bytes
      (Bw_exec.Run.simulate ~machine q).Bw_exec.Run.cache
  in
  let before = traffic p and after = traffic p' in
  check bool
    (Printf.sprintf "traffic %d -> %d" before after)
    true
    (float_of_int after < 0.7 *. float_of_int before);
  let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
  check bool "behaviour preserved" true (Bw_exec.Interp.equal_observation o1 o2)

let test_regroup_rejects_live_out () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program keep
        real a[16] = zero
        real b[16] = zero
        live_out a, b
        for i = 1, 16
          a[i] = b[i]
        end for
      end
      |}
  in
  check Alcotest.(list (pair string string)) "no candidates" []
    (Bw_transform.Regroup.candidates p)

let test_regroup_rejects_mismatched_init () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program mism
        real a[16] = hash(1)
        real b[16] = hash(2)
        real s
        live_out s
        for i = 1, 16
          s = s + a[i] * b[i]
        end for
      end
      |}
  in
  match Bw_transform.Regroup.regroup_pair p "a" "b" with
  | Ok _ -> Alcotest.fail "expected rejection: differing initialisers"
  | Error _ -> ()

(* --- Advisor ------------------------------------------------------------------- *)

let test_advisor_fig7 () =
  let machine = Bw_machine.Machine.origin2000 in
  (* res (5.6 MB) must overflow the 4 MB L2 for fusion to matter *)
  let p = Bw_workloads.Fig7.original ~n:700_000 in
  let r = Bw_core.Advisor.diagnose ~machine p in
  check Alcotest.string "memory bound" "Mem-L2" r.Bw_core.Advisor.binding_resource;
  check bool "memory demand high" true (r.Bw_core.Advisor.memory_demand_ratio > 5.0);
  check bool "has suggestions" true (r.Bw_core.Advisor.suggestions <> []);
  (* the best suggestion should reach the fully optimised traffic level *)
  let best = List.hd r.Bw_core.Advisor.suggestions in
  check bool "best saves >= 40%" true
    (float_of_int best.Bw_core.Advisor.traffic_after
    < 0.6 *. float_of_int best.Bw_core.Advisor.traffic_before);
  (* the suggested program is directly usable and equivalent *)
  let o1 = Bw_exec.Interp.run p in
  let o2 = Bw_exec.Interp.run best.Bw_core.Advisor.apply in
  check bool "suggestion preserves semantics" true
    (Bw_exec.Interp.equal_observation o1 o2)

let test_advisor_quiet_when_nothing_helps () =
  (* a single already-minimal streaming loop *)
  let p = Bw_workloads.Simple_example.read_loop ~n:50_000 in
  let machine = Bw_machine.Machine.origin2000 in
  let r = Bw_core.Advisor.diagnose ~machine p in
  check bool "no false suggestions" true (r.Bw_core.Advisor.suggestions = [])

let test_advisor_suggests_tiling_for_mm () =
  let machine =
    { Bw_machine.Machine.origin2000 with
      Bw_machine.Machine.name = "small";
      caches =
        [ { Bw_machine.Cache.size_bytes = 2048; line_bytes = 32; associativity = 2 };
          { Bw_machine.Cache.size_bytes = 64 * 1024;
            line_bytes = 128;
            associativity = 2 } ] }
  in
  let p = Bw_workloads.Registry.with_params "mm_jki" [ ("n", 96) ] in
  let r = Bw_core.Advisor.diagnose ~machine p in
  check bool "tiling suggested" true
    (List.exists
       (fun s ->
         contains ~affix:"tile" s.Bw_core.Advisor.action)
       r.Bw_core.Advisor.suggestions)

(* --- latency model -------------------------------------------------------------- *)

let test_latency_model () =
  let machine = Bw_machine.Machine.origin2000 in
  let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:1 ~n:50_000 in
  let r = Bw_exec.Run.simulate ~machine p in
  let t overlap =
    Bw_machine.Timing.predict_with_latency machine r.Bw_exec.Run.cache
      r.Bw_exec.Run.counters ~miss_latency:400e-9 ~overlap
  in
  check bool "monotone in overlap" true (t 0.0 > t 0.5 && t 0.5 > t 1.0);
  check bool "full overlap = bandwidth bound" true
    (Float.abs (t 1.0 -. r.Bw_exec.Run.breakdown.Bw_machine.Timing.total) < 1e-12);
  Alcotest.check_raises "overlap range"
    (Invalid_argument "Timing.predict_with_latency: overlap must be in [0,1]")
    (fun () -> ignore (t 1.5))

(* --- Harness / bench JSON ------------------------------------------------- *)

(* The --json output must parse and name every experiment table, without
   paying for an actual full-scale run: build the document from fake
   outcomes covering Experiments.all, round-trip it through the JSON
   printer and parser, and check every table id survives. *)
let test_bench_json_roundtrip () =
  let module J = Bw_core.Json in
  let outcomes =
    List.map
      (fun (id, _) ->
        { Bw_core.Harness.id;
          title = "title of " ^ id;
          body = "body\n";
          seconds = 0.25;
          status = Bw_core.Harness.Ok
        })
      Bw_core.Experiments.all
  in
  let doc = Bw_core.Harness.json_of_results ~scale:2 ~jobs:3 outcomes in
  let parsed = J.parse (J.to_string doc) in
  check (Alcotest.option Alcotest.int) "schema_version" (Some 6)
    (Option.bind (J.member "schema_version" parsed) (function
      | J.Int i -> Some i
      | _ -> None));
  (* the tables are the whole document: timings live in perfbench/ and
     serve load in `bwc client --load` *)
  check bool "no micro key" true (J.member "micro" parsed = None);
  check bool "no serve key" true (J.member "serve" parsed = None);
  (match Option.bind (J.member "tables" parsed) J.to_list with
  | None -> Alcotest.fail "tables is not a list"
  | Some tables ->
    List.iter
      (fun t ->
        check (Alcotest.option Alcotest.string) "status ok" (Some "ok")
          (Option.bind (J.member "status" t) J.to_str);
        check bool "no error field on ok tables" true
          (J.member "error" t = None))
      tables);
  let ids_in_json =
    match Option.bind (J.member "tables" parsed) J.to_list with
    | None -> Alcotest.fail "tables is not a list"
    | Some tables ->
      List.filter_map
        (fun t -> Option.bind (J.member "id" t) J.to_str)
        tables
  in
  List.iter
    (fun (id, _) ->
      check bool (Printf.sprintf "table id %S present" id) true
        (List.mem id ids_in_json))
    Bw_core.Experiments.all;
  check Alcotest.int "no extra tables" (List.length Bw_core.Experiments.all)
    (List.length ids_in_json);
  let seconds =
    Option.bind (J.member "tables" parsed) J.to_list
    |> Option.map (List.filter_map (fun t ->
           Option.bind (J.member "seconds" t) J.to_float))
  in
  check (Alcotest.option (Alcotest.list (Alcotest.float 1e-9))) "seconds"
    (Some (List.map (fun _ -> 0.25) outcomes))
    seconds

(* The harness must return results in input order even when racing
   domains, and jobs=1 must behave identically. *)
let test_harness_order () =
  let mk id =
    ( id,
      fun ?scale () ->
        ignore scale;
        Bw_core.Table.make ~title:id ~header:[ "c" ] [ [ id ] ] )
  in
  let experiments = List.map mk [ "t1"; "t2"; "t3"; "t4"; "t5" ] in
  let serial = Bw_core.Harness.run ~jobs:1 experiments in
  let parallel = Bw_core.Harness.run ~jobs:4 experiments in
  let ids results = List.map (fun o -> o.Bw_core.Harness.id) results in
  check (Alcotest.list Alcotest.string) "serial order"
    [ "t1"; "t2"; "t3"; "t4"; "t5" ] (ids serial);
  check (Alcotest.list Alcotest.string) "parallel order" (ids serial)
    (ids parallel);
  List.iter2
    (fun a b ->
      check Alcotest.string "same body" a.Bw_core.Harness.body
        b.Bw_core.Harness.body)
    serial parallel

let mk_table id =
  ( id,
    fun ?scale () ->
      ignore scale;
      Bw_core.Table.make ~title:id ~header:[ "c" ] [ [ id ] ] )

let mk_raiser id msg =
  (id, fun ?scale () -> ignore scale; failwith msg)

(* Regression for the old `failwith "Harness.run: missing result"` /
   dead-domain behaviour: one raising thunk must produce an Error
   outcome for that table only, and every sibling table must render
   byte-identically to a serial run — under both jobs=1 and jobs=4. *)
let test_harness_raising_thunk () =
  let experiments =
    [ mk_table "a1"; mk_raiser "boom" "table exploded"; mk_table "a2";
      mk_table "a3"; mk_table "a4" ]
  in
  let good = Bw_core.Harness.run ~jobs:1 [ mk_table "a1"; mk_table "a2"; mk_table "a3"; mk_table "a4" ] in
  List.iter
    (fun jobs ->
      let outcomes = Bw_core.Harness.run ~jobs experiments in
      check Alcotest.int "five outcomes" 5 (List.length outcomes);
      check (Alcotest.list Alcotest.string) "order preserved"
        [ "a1"; "boom"; "a2"; "a3"; "a4" ]
        (List.map (fun o -> o.Bw_core.Harness.id) outcomes);
      (match (List.nth outcomes 1).Bw_core.Harness.status with
      | Bw_core.Harness.Error msg ->
        check bool "message mentions the failure" true
          (contains ~affix:"table exploded" msg)
      | Bw_core.Harness.Ok -> Alcotest.fail "raising thunk reported Ok");
      check bool "all_ok is false" false (Bw_core.Harness.all_ok outcomes);
      let siblings =
        List.filter (fun o -> o.Bw_core.Harness.id <> "boom") outcomes
      in
      List.iter2
        (fun s g ->
          check bool (s.Bw_core.Harness.id ^ " ok") true (Bw_core.Harness.ok s);
          check Alcotest.string "sibling body matches serial run"
            g.Bw_core.Harness.body s.Bw_core.Harness.body)
        siblings good)
    [ 1; 4 ]

(* A worker domain that dies outright (injected harness.worker fault)
   leaves a claimed-but-unfinished slot; the post-join sweep must retry
   it on a surviving domain so every table still comes back Ok. *)
let test_harness_worker_death_retried () =
  Bw_obs.Fault.reset ();
  Bw_obs.Fault.arm "harness.worker" Bw_obs.Fault.Raise (Bw_obs.Fault.Nth 1);
  Fun.protect ~finally:Bw_obs.Fault.reset @@ fun () ->
  let experiments = List.map mk_table [ "w1"; "w2"; "w3"; "w4"; "w5" ] in
  let outcomes = Bw_core.Harness.run ~jobs:3 experiments in
  check Alcotest.int "five outcomes" 5 (List.length outcomes);
  check bool "all recovered" true (Bw_core.Harness.all_ok outcomes);
  check (Alcotest.list Alcotest.string) "order preserved"
    [ "w1"; "w2"; "w3"; "w4"; "w5" ]
    (List.map (fun o -> o.Bw_core.Harness.id) outcomes);
  check bool "the fault actually fired" true
    (Bw_obs.Fault.fires "harness.worker" = 1)

(* Error outcomes flow into the JSON document as status/error fields
   and survive a print/parse round-trip next to ok tables. *)
let test_bench_json_error_outcomes () =
  let module J = Bw_core.Json in
  let outcomes =
    [ { Bw_core.Harness.id = "good";
        title = "t";
        body = "b\n";
        seconds = 0.5;
        status = Bw_core.Harness.Ok };
      { Bw_core.Harness.id = "bad";
        title = "";
        body = "";
        seconds = 0.0;
        status = Bw_core.Harness.Error "Failure(\"kaboom\")" } ]
  in
  let doc = Bw_core.Harness.json_of_results ~scale:1 ~jobs:2 outcomes in
  let parsed = J.parse (J.to_string doc) in
  match Option.bind (J.member "tables" parsed) J.to_list with
  | Some [ good; bad ] ->
    check (Alcotest.option Alcotest.string) "good status" (Some "ok")
      (Option.bind (J.member "status" good) J.to_str);
    check bool "good has no error" true (J.member "error" good = None);
    check (Alcotest.option Alcotest.string) "bad status" (Some "error")
      (Option.bind (J.member "status" bad) J.to_str);
    check (Alcotest.option Alcotest.string) "bad error message"
      (Some "Failure(\"kaboom\")")
      (Option.bind (J.member "error" bad) J.to_str)
  | _ -> Alcotest.fail "expected two tables"

(* JSON cannot express infinity or NaN: non-finite floats emit as null,
   so every emitted document parses; finite floats round-trip exactly. *)
let test_json_non_finite_floats () =
  let module J = Bw_core.Json in
  let doc =
    J.Obj
      [ ("inf", J.Float infinity); ("neg_inf", J.Float neg_infinity);
        ("nan", J.Float nan);
        ("list", J.List [ J.Float 1.5; J.Float (0.0 /. 0.0) ]);
        ("finite", J.Float 0.1) ]
  in
  let text = J.to_string doc in
  check Alcotest.string "emitted"
    {|{"inf":null,"neg_inf":null,"nan":null,"list":[1.5,null],"finite":0.10000000000000001}|}
    text;
  check bool "parses back" true
    (J.parse text
    = J.Obj
        [ ("inf", J.Null); ("neg_inf", J.Null); ("nan", J.Null);
          ("list", J.List [ J.Float 1.5; J.Null ]); ("finite", J.Float 0.1) ])

(* Property: whatever bytes end up in an outcome's id/title/body —
   quotes, backslashes, newlines, control characters — the bench JSON
   document must round-trip them exactly through print + parse. *)
let prop_bench_json_string_roundtrip =
  let module J = Bw_core.Json in
  let nasty_string =
    QCheck.Gen.(
      string_size ~gen:
        (oneofl
           [ 'a'; 'z'; ' '; '"'; '\\'; '\n'; '\r'; '\t'; '\x01'; '{'; ']' ])
        (int_range 0 30))
  in
  let arb =
    QCheck.make
      ~print:(fun (a, b, c) -> Printf.sprintf "(%S, %S, %S)" a b c)
      QCheck.Gen.(triple nasty_string nasty_string nasty_string)
  in
  QCheck.Test.make ~count:200 ~name:"bench json round-trips nasty strings" arb
    (fun (id, title, body) ->
      let doc =
        Bw_core.Harness.json_of_results ~scale:1 ~jobs:1
          [ { Bw_core.Harness.id;
              title;
              body;
              seconds = 0.0;
              status = Bw_core.Harness.Ok } ]
      in
      let parsed = J.parse (J.to_string doc) in
      match Option.bind (J.member "tables" parsed) J.to_list with
      | Some [ t ] ->
        let field k = Option.bind (J.member k t) J.to_str in
        field "id" = Some id && field "title" = Some title
        && field "body" = Some body
      | _ -> false)

let test_bench_json_parse_errors () =
  let module J = Bw_core.Json in
  let fails s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  check bool "trailing garbage" true (fails "{} x");
  check bool "unterminated string" true (fails "\"abc");
  check bool "bare word" true (fails "nope");
  check Alcotest.string "escapes round-trip" "a\"b\\c\nd"
    (match J.parse (J.to_string (J.String "a\"b\\c\nd")) with
    | J.String s -> s
    | _ -> Alcotest.fail "not a string")

let suites =
  [ ( "core.table",
      [ Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "formatters" `Quick test_table_formatters ] );
    ( "core.balance",
      [ Alcotest.test_case "machine row" `Quick test_machine_balance_row;
        Alcotest.test_case "ratios and bound" `Quick test_ratios_and_bound ] );
    ( "core.experiments",
      [ Alcotest.test_case "all run" `Slow test_all_experiments_run;
        Alcotest.test_case "fig4 contents" `Quick test_fig4_table_contents;
        Alcotest.test_case "fig3 shape" `Slow test_fig3_shape;
        Alcotest.test_case "fig8 band" `Slow test_fig8_speedup_band;
        Alcotest.test_case "sp band" `Slow test_sp_utilisation_band ] );
    ( "core.bench",
      [ Alcotest.test_case "json round-trip covers all tables" `Quick
          test_bench_json_roundtrip;
        Alcotest.test_case "json parse errors" `Quick
          test_bench_json_parse_errors;
        Alcotest.test_case "json non-finite floats" `Quick
          test_json_non_finite_floats;
        QCheck_alcotest.to_alcotest ~long:false
          prop_bench_json_string_roundtrip;
        Alcotest.test_case "harness deterministic order" `Quick
          test_harness_order;
        Alcotest.test_case "raising thunk confined to its table" `Quick
          test_harness_raising_thunk;
        Alcotest.test_case "worker domain death retried" `Quick
          test_harness_worker_death_retried;
        Alcotest.test_case "error outcomes in json" `Quick
          test_bench_json_error_outcomes ] );
    ( "core.advisor",
      [ Alcotest.test_case "fig7 diagnosis" `Slow test_advisor_fig7;
        Alcotest.test_case "quiet when nothing helps" `Quick test_advisor_quiet_when_nothing_helps;
        Alcotest.test_case "suggests tiling for mm" `Slow test_advisor_suggests_tiling_for_mm ] );
    ( "machine.latency",
      [ Alcotest.test_case "latency tolerance model" `Quick test_latency_model ] );
    ( "transform.regroup",
      [ Alcotest.test_case "candidates" `Quick test_regroup_candidates;
        Alcotest.test_case "candidates compare multisets" `Quick
          test_regroup_candidates_multiset;
        Alcotest.test_case "semantics" `Quick test_regroup_semantics;
        Alcotest.test_case "locality" `Quick test_regroup_improves_locality;
        Alcotest.test_case "rejects live-out" `Quick test_regroup_rejects_live_out;
        Alcotest.test_case "rejects mismatched init" `Quick test_regroup_rejects_mismatched_init ] )
  ]
