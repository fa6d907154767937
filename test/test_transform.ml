open Bw_ir
open Bw_transform

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let same_semantics ?(tol = 0.0) name p1 p2 =
  let o1 = Bw_exec.Interp.run p1 and o2 = Bw_exec.Interp.run p2 in
  let equal =
    if tol = 0.0 then Bw_exec.Interp.equal_observation o1 o2
    else Bw_exec.Interp.close_observation ~tol o1 o2
  in
  if not equal then
    Alcotest.failf "%s: observations differ@.%a@.vs@.%a" name
      Bw_exec.Interp.pp_observation o1 Bw_exec.Interp.pp_observation o2

let parse = Bw_lang.Parse.parse_program_exn

(* --- Toplevel dependences ---------------------------------------------- *)

let test_dep_graph () =
  let p = Bw_workloads.Fig7.original ~n:16 in
  let g = Toplevel.dep_graph p in
  (* sum=0 -> sum loop; res loop -> sum loop; sum loop -> print *)
  check bool "0->2" true (Bw_graph.Digraph.mem_edge g 0 2);
  check bool "1->2" true (Bw_graph.Digraph.mem_edge g 1 2);
  check bool "2->3" true (Bw_graph.Digraph.mem_edge g 2 3);
  check bool "no 1->0" false (Bw_graph.Digraph.mem_edge g 0 1)

let test_reorder_legal () =
  let p = Bw_workloads.Fig7.original ~n:16 in
  match Toplevel.reorder p [ 1; 0; 2; 3 ] with
  | Ok p' -> same_semantics "reorder" p p'
  | Error e -> Alcotest.fail e

let test_reorder_illegal () =
  let p = Bw_workloads.Fig7.original ~n:16 in
  match Toplevel.reorder p [ 2; 1; 0; 3 ] with
  | Ok _ -> Alcotest.fail "expected dependence violation"
  | Error _ -> ()

(* --- Fusion -------------------------------------------------------------- *)

let test_fuse_conformable () =
  let p = Bw_workloads.Fig7.original ~n:200 in
  match Fuse.fuse_at p 1 with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    check int "one less stmt" 3 (List.length p'.Ast.body);
    same_semantics "fig7 fusion" p p'

let test_fuse_matches_hand_fusion () =
  let auto = Fuse.greedy (Bw_workloads.Fig7.original ~n:100) in
  let hand = Bw_workloads.Fig7.fused_by_hand ~n:100 in
  same_semantics "greedy = hand" auto hand

let test_fuse_rejects_backward_dep () =
  (* L2 reads a[i+1], written by L1: fusing would read unwritten data. *)
  let p =
    parse
      {|
      program bad_fuse
        real a[100]
        real b[100]
        live_out b
        for i = 1, 99
          a[i] = a[i] + 1.0
        end for
        for i = 1, 99
          b[i] = a[i+1]
        end for
      end
      |}
  in
  match Fuse.fuse_at p 0 with
  | Ok _ -> Alcotest.fail "expected fusion to be rejected"
  | Error _ -> ()

let test_fuse_accepts_forward_dep () =
  let p =
    parse
      {|
      program ok_fuse
        real a[100]
        real b[100]
        live_out b
        for i = 2, 99
          a[i] = a[i] + 1.0
        end for
        for i = 2, 99
          b[i] = a[i-1]
        end for
      end
      |}
  in
  match Fuse.fuse_at p 0 with
  | Ok p' -> same_semantics "forward dep" p p'
  | Error e -> Alcotest.fail e

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_fuse_rejects_scalar_carried () =
  let p = Bw_workloads.Fig4.program ~n:50 in
  (* loops 5 and 6 share the scalar sum *)
  match Fuse.fuse_at p 4 with
  | Ok _ -> Alcotest.fail "expected scalar-carried rejection"
  | Error reason -> check bool "mentions sum" true (string_contains reason "sum")

let test_fuse_hull_guards () =
  let p =
    parse
      {|
      program hull
        real a[100]
        real b[100]
        live_out a, b
        for i = 1, 100
          a[i] = a[i] + 1.0
        end for
        for i = 5, 60
          b[i] = b[i] * 2.0
        end for
      end
      |}
  in
  match Fuse.fuse_at p 0 with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    check int "fused" 1 (List.length p'.Ast.body);
    same_semantics "hull fusion" p p'

let test_fuse_plan_fig4 () =
  let p = Bw_workloads.Fig4.program ~n:64 in
  (* bandwidth-minimal plan: {5} then {1,2,3,4,6}, print last *)
  match Fuse.apply_plan p [ [ 4 ]; [ 0; 1; 2; 3; 5 ]; [ 6 ] ] with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    check int "three statements" 3 (List.length p'.Ast.body);
    same_semantics "fig4 plan" p p'

let test_fuse_plan_rejects_illegal () =
  let p = Bw_workloads.Fig4.program ~n:32 in
  (* putting loop 6 before loop 5 breaks the sum dependence *)
  match Fuse.apply_plan p [ [ 5 ]; [ 0; 1; 2; 3; 4 ]; [ 6 ] ] with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

(* --- Interchange / tiling -------------------------------------------------- *)

let test_interchange_mm () =
  let p = Bw_workloads.Kernels.mm ~order:Bw_workloads.Kernels.Jki ~n:12 () in
  match p.Ast.body with
  | [ Ast.For nest ] -> (
    match Tile.interchange nest with
    | Error e -> Alcotest.fail e
    | Ok swapped ->
      let p' = { p with Ast.body = [ Ast.For swapped ] } in
      same_semantics "interchange mm" p p')
  | _ -> Alcotest.fail "unexpected shape"

let test_interchange_rejects_recurrence () =
  let p =
    parse
      {|
      program recur
        real a[20,20]
        live_out a
        for j = 2, 20
          for i = 2, 20
            a[i,j] = a[i-1,j] + a[i,j-1]
          end for
        end for
      end
      |}
  in
  match p.Ast.body with
  | [ Ast.For nest ] -> (
    match Tile.interchange nest with
    | Ok _ -> Alcotest.fail "expected rejection (wavefront recurrence)"
    | Error _ -> ())
  | _ -> Alcotest.fail "unexpected shape"

let test_strip_mine () =
  let p = Bw_workloads.Simple_example.write_loop ~n:103 in
  match p.Ast.body with
  | [ Ast.For l ] -> (
    match Tile.strip_mine l ~tile:10 ~outer_index:"ii" with
    | Error e -> Alcotest.fail e
    | Ok stripped ->
      same_semantics "strip mine" p { p with Ast.body = [ Ast.For stripped ] })
  | _ -> Alcotest.fail "unexpected shape"

let test_tile_mm_semantics () =
  let p = Bw_workloads.Kernels.mm ~order:Bw_workloads.Kernels.Jki ~n:20 () in
  let tiled = Bw_workloads.Kernels.mm_blocked ~n:20 ~tile:6 in
  same_semantics "tiled mm" p tiled

let test_tile_mm_reduces_traffic () =
  (* With caches much smaller than the matrices, blocking slashes memory
     traffic (the Figure 1 mm -O2 vs -O3 contrast). *)
  let small_cache =
    { Bw_machine.Machine.origin2000 with
      Bw_machine.Machine.name = "origin-small";
      caches =
        [ { Bw_machine.Cache.size_bytes = 2048; line_bytes = 32; associativity = 2 };
          { Bw_machine.Cache.size_bytes = 64 * 1024;
            line_bytes = 128;
            associativity = 2 } ] }
  in
  let traffic p =
    let r = Bw_exec.Run.simulate ~machine:small_cache p in
    Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache
  in
  let plain = traffic (Bw_workloads.Kernels.mm ~order:Bw_workloads.Kernels.Jki ~n:96 ()) in
  let tiled = traffic (Bw_workloads.Kernels.mm_blocked ~n:96 ~tile:24) in
  check bool
    (Printf.sprintf "tiled %d << plain %d" tiled plain)
    true
    (float_of_int tiled < 0.35 *. float_of_int plain)

(* --- Scalar replacement / store elimination ---------------------------------- *)

let test_forward_stores_fig7 () =
  let p = Bw_workloads.Fig7.fused_by_hand ~n:300 in
  let p', hits = Scalar_replace.forward_stores p in
  check int "one site forwarded" 1 hits;
  same_semantics "forwarding" p p';
  (* forwarding removes the re-load of res[i] *)
  let _, c = Bw_exec.Run.observe p in
  let _, c' = Bw_exec.Run.observe p' in
  check bool "fewer loads" true
    (c'.Bw_machine.Counters.loads < c.Bw_machine.Counters.loads)

let test_store_elim_fig7 () =
  let p = Bw_workloads.Fig7.fused_by_hand ~n:300 in
  let p', eliminated = Store_elim.run p in
  check Alcotest.(list string) "res eliminated" [ "res" ] eliminated;
  same_semantics "store elimination" p p';
  let _, c' = Bw_exec.Run.observe p' in
  check int "no stores remain" 0 c'.Bw_machine.Counters.stores

let test_store_elim_respects_live_out () =
  let p =
    parse
      {|
      program keep
        real a[50]
        live_out a
        for i = 1, 50
          a[i] = a[i] + 1.0
        end for
      end
      |}
  in
  let _, eliminated = Store_elim.run p in
  check Alcotest.(list string) "nothing eliminated" [] eliminated

let test_store_elim_respects_later_reads () =
  let p = Bw_workloads.Fig7.original ~n:100 in
  (* unfused: res is read by the second loop, stores must stay *)
  let _, eliminated = Store_elim.run p in
  check Alcotest.(list string) "nothing eliminated" [] eliminated

let test_store_elim_respects_carried_reads () =
  let p =
    parse
      {|
      program carried
        real a[100]
        real s
        live_out s
        for i = 2, 100
          a[i] = a[i-1] + 1.0
          s = s + a[i]
        end for
      end
      |}
  in
  let p', eliminated = Store_elim.run p in
  check Alcotest.(list string) "recurrence kept" [] eliminated;
  same_semantics "no-op" p p'

let test_store_elim_halves_traffic () =
  let machine = Bw_machine.Machine.origin2000 in
  let p = Bw_workloads.Fig7.fused_by_hand ~n:400_000 in
  let p', _ = Store_elim.run p in
  let bytes prog =
    let r = Bw_exec.Run.simulate ~machine prog in
    Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache
  in
  let before = bytes p and after = bytes p' in
  let ratio = float_of_int after /. float_of_int before in
  check bool
    (Printf.sprintf "traffic ratio %.2f in [0.6, 0.72]" ratio)
    true
    (ratio > 0.6 && ratio < 0.72)

(* --- Contraction --------------------------------------------------------------- *)

let test_contract_simple () =
  let p =
    parse
      {|
      program temp_array
        real t[100]
        real a[100]
        real s
        live_out s
        for i = 1, 100
          t[i] = a[i] * 2.0
          s = s + t[i]
        end for
      end
      |}
  in
  check Alcotest.(list string) "t contractable" [ "t" ] (Contract.contractable p);
  let p', contracted = Contract.contract_arrays p in
  check Alcotest.(list string) "t contracted" [ "t" ] contracted;
  same_semantics "contraction" p p';
  (* the array declaration is gone *)
  check bool "decl removed" true (Ast.find_decl p' "t" = None)

let test_contract_rejects_carried () =
  let p =
    parse
      {|
      program carried2
        real t[100]
        real s
        live_out s
        for i = 2, 100
          t[i] = t[i-1] + 1.0
          s = s + t[i]
        end for
      end
      |}
  in
  check Alcotest.(list string) "not contractable" [] (Contract.contractable p)

let test_contract_rejects_live_out () =
  let p =
    parse
      {|
      program liveout
        real t[10]
        live_out t
        for i = 1, 10
          t[i] = 1.0
        end for
      end
      |}
  in
  check Alcotest.(list string) "not contractable" [] (Contract.contractable p)

let test_contract_rejects_read_first () =
  let p =
    parse
      {|
      program readfirst
        real t[10]
        real s
        live_out s
        for i = 1, 10
          s = s + t[i]
          t[i] = s
        end for
      end
      |}
  in
  check Alcotest.(list string) "not contractable" [] (Contract.contractable p)

(* --- Shrinking / peeling --------------------------------------------------------- *)

let test_shrink_fig6 () =
  let n = 40 in
  let p = Bw_workloads.Fig6.fused ~n in
  (* contract b first, as the strategy does *)
  let p, contracted = Contract.contract_arrays p in
  check Alcotest.(list string) "b contracted" [ "b" ] contracted;
  match Shrink.apply p "a" with
  | Error e -> Alcotest.fail e
  | Ok (p', plan) ->
    check int "depth 2" 2 plan.Shrink.depth;
    check Alcotest.(list int) "column 1 peeled" [ 1 ] plan.Shrink.peeled_columns;
    same_semantics "fig6 shrink" (Bw_workloads.Fig6.fused ~n) p';
    (* storage falls from O(n^2) to O(n) *)
    let before = Shrink.storage_bytes (Bw_workloads.Fig6.fused ~n) in
    let after = Shrink.storage_bytes p' in
    check bool
      (Printf.sprintf "storage %d -> %d" before after)
      true
      (after < (4 * n * 8) + 64 && before >= 2 * n * n * 8)

let test_shrink_semantics_various_n () =
  List.iter
    (fun n ->
      let p = Bw_workloads.Fig6.fused ~n in
      let p, _ = Contract.contract_arrays p in
      match Shrink.apply p "a" with
      | Error e -> Alcotest.failf "n=%d: %s" n e
      | Ok (p', _) -> same_semantics (Printf.sprintf "n=%d" n) (Bw_workloads.Fig6.fused ~n) p')
    [ 5; 8; 13 ]

let test_shrink_rejects_live_out () =
  let p =
    parse
      {|
      program live
        real a[50]
        live_out a
        for i = 2, 50
          a[i] = a[i-1] + 1.0
        end for
      end
      |}
  in
  match Shrink.plan p "a" with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_shrink_rejects_lookahead () =
  let p =
    parse
      {|
      program ahead
        real a[50]
        real s
        live_out s
        for i = 1, 49
          a[i] = a[i+1] * 2.0
          s = s + a[i]
        end for
      end
      |}
  in
  (* writes at offset 0, reads at +1: read looks ahead of the write *)
  match Shrink.plan p "a" with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_shrink_plain_window () =
  (* no peeled column at all: pure modular shrink *)
  let p =
    parse
      {|
      program window
        real a[200]
        real s
        live_out s
        for i = 1, 200
          a[i] = f(float(i))
          s = s + a[i]
        end for
      end
      |}
  in
  match Shrink.apply p "a" with
  | Error e -> Alcotest.fail e
  | Ok (p', plan) ->
    check int "depth 1" 1 plan.Shrink.depth;
    same_semantics "window" p p'

(* [Shrink.shrink_all] does not re-plan an array whose failed plan read
   the same inputs; the reference plans every round from scratch: apply
   the first array, in declaration order and not shrunk yet, that
   plans, and repeat until none does. *)
let shrink_by_restarting (p : Ast.program) =
  let rec go (p : Ast.program) plans =
    let attempt (d : Ast.decl) =
      if List.exists (fun (pl : Shrink.plan) -> pl.Shrink.array = d.Ast.var_name) plans
      then None
      else Result.to_option (Shrink.apply p d.Ast.var_name)
    in
    match List.find_map attempt p.Ast.decls with
    | Some (p', pl) -> go p' (plans @ [ pl ])
    | None -> (p, plans)
  in
  go p []

let test_shrink_all_equals_restarting () =
  let inputs = ref 0 and several = ref 0 in
  let same name p =
    incr inputs;
    let q, plans = Shrink.shrink_all p in
    let q', plans' = shrink_by_restarting p in
    if plans <> plans' || not (Ast.equal_program q q') then
      Alcotest.failf "%s: shrink_all differs from planning from scratch" name;
    if List.length plans >= 2 then incr several
  in
  let both (name, p) =
    same name p;
    same (name ^ " fused") (fst (Contract.contract_arrays (Fuse.greedy p)))
  in
  List.iter both
    (Pins.corpus_programs ~corpus:"../corpus" @ Pins.registry_programs ~scale:1);
  List.iter
    (fun size ->
      for seed = 1 to 2000 do
        both
          ( Printf.sprintf "gen seed %d size %d" seed size,
            Bw_qa.Gen.generate ~seed ~size )
      done)
    [ 3; 6; 12 ];
  check int "inputs" 12080 !inputs;
  check bool "some inputs take several plans" true (!several > 0)

(* --- Simplify ----------------------------------------------------------------------- *)

let test_simplify_folding () =
  let open Builder in
  check bool "arith" true
    (Simplify.fold_expr (int 2 +: (int 3 *: int 4)) = int 14);
  check bool "min" true (Simplify.fold_expr (min_ (int 2) (int 5)) = int 2);
  (match Simplify.fold_cond (int 3 <=: int 4) with
  | `True -> ()
  | _ -> Alcotest.fail "expected true");
  match Simplify.fold_cond (and_ (int 3 >: int 4) (v "x" <: int 2)) with
  | `False -> ()
  | _ -> Alcotest.fail "expected false"

let test_simplify_prunes_branches () =
  let p =
    parse
      {|
      program prune
        real s
        live_out s
        for i = 1, 10
          if (2 < 1)
            s = s + 100.0
          else
            s = s + 1.0
          end if
        end for
      end
      |}
  in
  let p' = Simplify.simplify_program p in
  same_semantics "prune" p p';
  let has_if =
    Ast_util.fold_stmts
      (fun acc s -> acc || match s with Ast.If _ -> true | _ -> false)
      false p'.Ast.body
  in
  check bool "if removed" false has_if

let test_simplify_single_iteration () =
  let p =
    parse
      {|
      program once
        real a[10]
        live_out a
        for i = 3, 3
          a[i] = a[i] + 1.0
        end for
      end
      |}
  in
  let p' = Simplify.simplify_program p in
  same_semantics "single iteration" p p';
  check int "loop unrolled away"
    0
    (List.length (Ast_util.loop_indices p'.Ast.body))

(* --- Strategy end-to-end --------------------------------------------------------------- *)

let test_strategy_fig7 () =
  let p = Bw_workloads.Fig7.original ~n:1000 in
  let p', report = Strategy.run p in
  same_semantics "strategy fig7" p p';
  check int "fused" 1 report.Strategy.fused_loops;
  check bool "store eliminated" true
    (List.mem "res" report.Strategy.stores_eliminated);
  let _, c = Bw_exec.Run.observe p' in
  check int "no stores" 0 c.Bw_machine.Counters.stores

(* One optimize of the corpus's largest program, as the compile
   benchmark runs it: parse, the guarded pipeline, layout.  Its
   minor-heap allocation repeats exactly from run to run; the budget is
   10% above the 857,729 words counted when it was set (1,229,123 while
   the predictor described every group again at each enclosing loop). *)
let test_nas_sp_allocation_budget () =
  Bw_obs.Fault.reset ();
  let src =
    In_channel.with_open_bin "../corpus/nas_sp.bw" In_channel.input_all
  in
  let op () =
    match Bw_lang.Parse.parse_program src with
    | Error e -> Alcotest.failf "%a" Bw_lang.Parse.pp_error e
    | Ok p ->
      let q, _, _ = Strategy.run_guarded p in
      Layout.run q
  in
  ignore (op ());
  let words = Gc.minor_words () in
  ignore (Sys.opaque_identity (op ()));
  let used = Gc.minor_words () -. words in
  let budget = 943_502.0 in
  if used > budget then
    Alcotest.failf "one nas_sp optimize allocated %.0f minor words, budget %.0f"
      used budget

(* One simulation of a small generated program (seed 9 at size 5: 35
   references), as a serve miss runs it, on each paper machine.  The
   slot storage of its cache levels is recycled from the run before, and
   the engine's trace buffer is allocated on the minor heap, so after a
   warm-up run the major heap takes only the free list's own cells.  The
   minor heap is emptied before and after the run, and [Gc.counters]
   includes major allocations no GC slice has tallied yet, so the count
   is exact: the run's direct major allocations and what it promoted.
   The budget is 10% above the 8 words counted when it was set; with a
   major-heap trace buffer a run took 3,081, and with fresh storage
   about 75,000. *)
let test_small_simulation_allocation_budget () =
  let p = Bw_qa.Gen.generate ~seed:9 ~size:5 in
  let major_words () =
    Gc.minor ();
    let _, _, major = Gc.counters () in
    major
  in
  List.iter
    (fun machine ->
      let run () = Bw_exec.Run.simulate ~machine p in
      ignore (run ());
      let words = major_words () in
      ignore (Sys.opaque_identity (run ()));
      let used = major_words () -. words in
      let budget = 8.8 in
      if used > budget then
        Alcotest.failf
          "one simulation on %s allocated %.0f major words, budget %.0f"
          machine.Bw_machine.Machine.name used budget)
    [ Bw_machine.Machine.origin2000; Bw_machine.Machine.exemplar ]

let test_strategy_fig6 () =
  let p = Bw_workloads.Fig6.fused ~n:30 in
  let p', report = Strategy.run p in
  same_semantics "strategy fig6" p p';
  check bool "b contracted" true (List.mem "b" report.Strategy.contracted);
  check bool "a shrunk" true
    (List.exists
       (fun (pl : Shrink.plan) -> pl.Shrink.array = "a")
       report.Strategy.shrink_plans)

let test_strategy_preserves_random_programs () =
  for seed = 20 to 32 do
    let p = Bw_workloads.Random_programs.generate ~seed ~loops:6 ~arrays:4 ~n:80 in
    let p', _ = Strategy.run p in
    same_semantics (Printf.sprintf "random %d" seed) p p'
  done

let test_strategy_preserves_workloads () =
  (* the full pipeline must never change observable behaviour *)
  List.iter
    (fun (name, p) ->
      let p', _ = Strategy.run p in
      same_semantics name p p')
    [ ("fig4", Bw_workloads.Fig4.program ~n:40);
      ("sweep3d", Bw_workloads.Sweep3d.sweep ~n:6 ~octants:2);
      ("sp", Bw_workloads.Nas_sp.full ~n:5);
      ("stride 2w3r", Bw_workloads.Stride_kernels.kernel ~writes:2 ~reads:3 ~n:64);
      ("conv", Bw_workloads.Kernels.convolution ~n:64 ~taps:4) ]

(* --- Guarded pipeline ------------------------------------------------------------------ *)

let with_fault site action policy f =
  Bw_obs.Fault.reset ();
  Bw_obs.Fault.arm site action policy;
  Fun.protect ~finally:Bw_obs.Fault.reset f

let validating trials = { Guard.default_config with Guard.validate = trials }

(* The default pipeline with the data-layout stage appended, as
   `bwc optimize --layout` runs it. *)
let all_stages = Strategy.(default @ [ Layout ])

(* An injected raise in any stage must be confined: the pipeline
   completes, semantics are preserved, and exactly that stage records
   one exception rollback. *)
let test_guard_fault_confined_per_stage () =
  let p = Bw_workloads.Fig7.original ~n:400 in
  List.iter
    (fun stage ->
      let stage = Strategy.stage_name stage in
      let site = "guard." ^ stage in
      with_fault site Bw_obs.Fault.Raise (Bw_obs.Fault.Nth 1) @@ fun () ->
      let p', _report, events =
        Strategy.run_guarded ~stages:all_stages ~guard:(validating 1) p
      in
      same_semantics ("faulted " ^ stage) p p';
      (match
         List.filter (fun e -> e.Guard.verdict <> Guard.Committed) events
       with
      | [ { Guard.stage = s; verdict = Guard.Rolled_back (Guard.Exception _) } ]
        ->
        check Alcotest.string "rolled-back stage" stage s
      | _ -> Alcotest.failf "expected exactly one exception rollback in %s" stage);
      check int "fault fired once" 1 (Bw_obs.Fault.fires site))
    all_stages

(* Rolling a stage back must reproduce the stage's input exactly, so a
   faulted fuse equals the fuse-disabled pipeline program-for-program. *)
let test_guard_rollback_equals_disabled_stage () =
  let p = Bw_workloads.Fig7.original ~n:300 in
  let disabled, _ =
    Strategy.run ~stages:(List.filter (( <> ) Strategy.Fuse) Strategy.default) p
  in
  with_fault "guard.fuse" Bw_obs.Fault.Raise (Bw_obs.Fault.Nth 1) @@ fun () ->
  let faulted, _, _ = Strategy.run_guarded p in
  check bool "identical to fuse-disabled run" true
    (Ast.equal_program faulted disabled)

(* A Corrupt fault mutates the stage output in a way that still
   type-checks; only differential validation can catch it — and must. *)
let test_guard_corruption_caught_by_validation () =
  let p = Bw_workloads.Fig7.original ~n:200 in
  with_fault "guard.shrink" Bw_obs.Fault.Corrupt (Bw_obs.Fault.Nth 1)
  @@ fun () ->
  let p', _, events = Strategy.run_guarded ~guard:(validating 2) p in
  same_semantics "corruption rolled back" p p';
  match List.find_opt (fun e -> e.Guard.stage = "shrink") events with
  | Some { Guard.verdict = Guard.Rolled_back (Guard.Validation_failed _); _ } ->
    ()
  | _ -> Alcotest.fail "expected a validation-failure rollback on shrink"

(* Negative control for the test above: with validation off, the same
   type-correct corruption commits and observably changes behaviour —
   the differential oracle, not Check.check, is what catches it. *)
let test_guard_corruption_escapes_without_validation () =
  let p = Bw_workloads.Fig7.original ~n:200 in
  with_fault "guard.shrink" Bw_obs.Fault.Corrupt (Bw_obs.Fault.Nth 1)
  @@ fun () ->
  let p', _, events = Strategy.run_guarded p in
  check bool "corrupt stage committed" true
    (List.for_all (fun e -> e.Guard.verdict = Guard.Committed) events);
  check bool "behaviour changed" false
    (Bw_exec.Interp.equal_observation (Bw_exec.Interp.run p)
       (Bw_exec.Interp.run p'))

(* validate_pair as a standalone oracle: a program agrees with itself,
   and the guard's own corruption is detected. *)
let test_guard_validate_pair () =
  let p = Bw_workloads.Fig7.original ~n:64 in
  (match Guard.validate_pair ~before:p ~after:p () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-validation failed: %s" e);
  match Guard.corrupt_program p with
  | None -> Alcotest.fail "expected a corruptible assignment"
  | Some bad -> (
    Bw_ir.Check.check_exn bad;
    match Guard.validate_pair ~before:p ~after:bad () with
    | Ok () -> Alcotest.fail "corruption slipped past validation"
    | Error _ -> ())

(* Fail-fast mode: rollback=false turns the first stage failure into
   Guard_failed, with that failure as the last recorded event. *)
let test_guard_fail_fast () =
  let p = Bw_workloads.Fig7.original ~n:100 in
  with_fault "guard.contract" Bw_obs.Fault.Raise (Bw_obs.Fault.Nth 1)
  @@ fun () ->
  match
    Strategy.run_guarded
      ~guard:{ Guard.default_config with Guard.rollback = false }
      p
  with
  | _ -> Alcotest.fail "expected Guard_failed"
  | exception Guard.Guard_failed events -> (
    match List.rev events with
    | { Guard.stage = "contract";
        verdict = Guard.Rolled_back (Guard.Exception _) }
      :: _ ->
      ()
    | _ -> Alcotest.fail "last event should be the contract failure")

(* An exhausted fuel budget rolls every stage back without running it:
   the program comes back untouched, each stage Budget_exhausted — the
   layout stage included, since it draws on the same budget. *)
let test_guard_fuel_budget () =
  Bw_obs.Fault.reset ();
  let p = Bw_workloads.Fig7.original ~n:100 in
  let p', _, events =
    Strategy.run_guarded ~stages:all_stages
      ~guard:{ Guard.default_config with Guard.fuel = Some 0 }
      p
  in
  check bool "program unchanged" true (Ast.equal_program p p');
  check (Alcotest.list Alcotest.string) "one event per stage"
    ("input" :: List.map Strategy.stage_name all_stages)
    (List.map (fun ev -> ev.Guard.stage) events);
  List.iter
    (fun ev ->
      match ev.Guard.verdict with
      | Guard.Rolled_back (Guard.Budget_exhausted _) -> ()
      | _ -> Alcotest.failf "stage %s should be budget-exhausted" ev.Guard.stage)
    events

(* With no faults armed, the guarded pipeline commits every stage on
   every registry workload — validation included — with zero rollbacks.
   The guard re-checks each stage's output with Check.check, so this
   also keeps the IR well-formed after every pass, layout included. *)
let test_guard_zero_rollbacks_on_registry () =
  Bw_obs.Fault.reset ();
  List.iter
    (fun (e : Bw_workloads.Registry.entry) ->
      let p = e.Bw_workloads.Registry.build ~scale:1 in
      let p', _, events =
        Strategy.run_guarded ~stages:all_stages ~guard:(validating 1) p
      in
      same_semantics e.Bw_workloads.Registry.name p p';
      check (Alcotest.list Alcotest.string) "every stage ran"
        ("input" :: List.map Strategy.stage_name all_stages)
        (List.map (fun ev -> ev.Guard.stage) events);
      List.iter
        (fun ev ->
          match ev.Guard.verdict with
          | Guard.Committed -> ()
          | Guard.Rolled_back f ->
            Alcotest.failf "%s: stage %s rolled back: %a"
              e.Bw_workloads.Registry.name ev.Guard.stage Guard.pp_failure f)
        events)
    Bw_workloads.Registry.all

(* Every individual pass, applied unguarded in pipeline order to every
   registry workload, must keep the IR well-formed under Check.check.
   The guard would roll a check-breaking pass back; this catches such a
   pass directly instead of relying on the rollback. *)
let test_individual_passes_keep_ir_wellformed () =
  let checked workload name q =
    match Bw_ir.Check.check q with
    | Ok () -> ()
    | Error errs ->
      Alcotest.failf "%s after %s: %a" workload name
        (Format.pp_print_list Bw_ir.Check.pp_error)
        errs
  in
  List.iter
    (fun (e : Bw_workloads.Registry.entry) ->
      let w = e.Bw_workloads.Registry.name in
      let p = e.Bw_workloads.Registry.build ~scale:1 in
      let fused = Fuse.greedy p in
      checked w "fuse" fused;
      let contracted, _ = Contract.contract_arrays fused in
      checked w "contract" contracted;
      let shrunk, _ = Shrink.shrink_all contracted in
      checked w "shrink" shrunk;
      let forwarded, _ = Scalar_replace.forward_stores shrunk in
      checked w "forward" forwarded;
      let eliminated, _ = Store_elim.eliminate_dead_stores forwarded in
      checked w "store-elim" eliminated;
      let tidied, _ = Contract.contract_arrays eliminated in
      checked w "contract-tidy" tidied;
      let laid_out, _ = Layout.run tidied in
      checked w "layout" laid_out)
    Bw_workloads.Registry.all

let suites =
  [ ( "transform.toplevel",
      [ Alcotest.test_case "dep graph" `Quick test_dep_graph;
        Alcotest.test_case "legal reorder" `Quick test_reorder_legal;
        Alcotest.test_case "illegal reorder" `Quick test_reorder_illegal ] );
    ( "transform.fuse",
      [ Alcotest.test_case "conformable" `Quick test_fuse_conformable;
        Alcotest.test_case "matches hand fusion" `Quick test_fuse_matches_hand_fusion;
        Alcotest.test_case "rejects backward dep" `Quick test_fuse_rejects_backward_dep;
        Alcotest.test_case "accepts forward dep" `Quick test_fuse_accepts_forward_dep;
        Alcotest.test_case "rejects scalar carried" `Quick test_fuse_rejects_scalar_carried;
        Alcotest.test_case "hull guards" `Quick test_fuse_hull_guards;
        Alcotest.test_case "fig4 plan" `Quick test_fuse_plan_fig4;
        Alcotest.test_case "rejects illegal plan" `Quick test_fuse_plan_rejects_illegal ] );
    ( "transform.tile",
      [ Alcotest.test_case "interchange mm" `Quick test_interchange_mm;
        Alcotest.test_case "rejects recurrence" `Quick test_interchange_rejects_recurrence;
        Alcotest.test_case "strip mine" `Quick test_strip_mine;
        Alcotest.test_case "tile mm semantics" `Quick test_tile_mm_semantics;
        Alcotest.test_case "tile mm traffic" `Slow test_tile_mm_reduces_traffic ] );
    ( "transform.store_elim",
      [ Alcotest.test_case "forward stores" `Quick test_forward_stores_fig7;
        Alcotest.test_case "fig7 elimination" `Quick test_store_elim_fig7;
        Alcotest.test_case "respects live-out" `Quick test_store_elim_respects_live_out;
        Alcotest.test_case "respects later reads" `Quick test_store_elim_respects_later_reads;
        Alcotest.test_case "respects carried reads" `Quick test_store_elim_respects_carried_reads;
        Alcotest.test_case "reduces traffic" `Slow test_store_elim_halves_traffic ] );
    ( "transform.contract",
      [ Alcotest.test_case "simple" `Quick test_contract_simple;
        Alcotest.test_case "rejects carried" `Quick test_contract_rejects_carried;
        Alcotest.test_case "rejects live-out" `Quick test_contract_rejects_live_out;
        Alcotest.test_case "rejects read-first" `Quick test_contract_rejects_read_first ] );
    ( "transform.shrink",
      [ Alcotest.test_case "figure 6" `Quick test_shrink_fig6;
        Alcotest.test_case "various sizes" `Quick test_shrink_semantics_various_n;
        Alcotest.test_case "rejects live-out" `Quick test_shrink_rejects_live_out;
        Alcotest.test_case "rejects lookahead" `Quick test_shrink_rejects_lookahead;
        Alcotest.test_case "plain window" `Quick test_shrink_plain_window;
        Alcotest.test_case "shrink_all equals planning from scratch" `Quick
          test_shrink_all_equals_restarting ] );
    ( "transform.simplify",
      [ Alcotest.test_case "folding" `Quick test_simplify_folding;
        Alcotest.test_case "prunes branches" `Quick test_simplify_prunes_branches;
        Alcotest.test_case "single iteration" `Quick test_simplify_single_iteration ] );
    ( "transform.strategy",
      [ Alcotest.test_case "fig7 pipeline" `Quick test_strategy_fig7;
        Alcotest.test_case "fig6 pipeline" `Quick test_strategy_fig6;
        Alcotest.test_case "nas_sp allocation budget" `Quick
          test_nas_sp_allocation_budget;
        Alcotest.test_case "small simulation allocation budget" `Quick
          test_small_simulation_allocation_budget;
        Alcotest.test_case "preserves all workloads" `Slow test_strategy_preserves_workloads;
        Alcotest.test_case "preserves random programs" `Slow test_strategy_preserves_random_programs ] );
    ( "transform.guard",
      [ Alcotest.test_case "fault confined per stage" `Quick
          test_guard_fault_confined_per_stage;
        Alcotest.test_case "rollback equals disabled stage" `Quick
          test_guard_rollback_equals_disabled_stage;
        Alcotest.test_case "corruption caught by validation" `Quick
          test_guard_corruption_caught_by_validation;
        Alcotest.test_case "corruption escapes without validation" `Quick
          test_guard_corruption_escapes_without_validation;
        Alcotest.test_case "validate_pair oracle" `Quick
          test_guard_validate_pair;
        Alcotest.test_case "fail fast raises Guard_failed" `Quick
          test_guard_fail_fast;
        Alcotest.test_case "fuel budget exhausts" `Quick
          test_guard_fuel_budget;
        Alcotest.test_case "zero rollbacks on registry" `Slow
          test_guard_zero_rollbacks_on_registry;
        Alcotest.test_case "individual passes keep IR well-formed" `Slow
          test_individual_passes_keep_ir_wellformed ] )
  ]
