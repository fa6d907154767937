(* Trace store: encode/decode round trips, and the central guarantee of
   capture and streaming — replaying a capture on any machine, and one
   engine run streamed into several machines, are bit-identical to
   simulating the program on each machine directly. *)

open Bw_machine
module Run = Bw_exec.Run

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let record = Alcotest.(triple int int int)

let collect store =
  let out = ref [] in
  Trace_store.iter store ~f:(fun kind addr bytes ->
      out := (kind, addr, bytes) :: !out);
  List.rev !out

let fill store recs =
  List.iter
    (fun (kind, addr, bytes) -> Trace_store.append store ~kind ~addr ~bytes)
    recs

(* --- round trips ------------------------------------------------------------ *)

let test_roundtrip_edge_records () =
  let t = Trace_store.create () in
  (* zero addresses, huge addresses, decreasing addresses (negative
     deltas), width changes and repeats *)
  let recs =
    [ (0, 0, 8); (1, 0, 8); (0, max_int / 2, 4); (1, 5, 4); (0, 5, 1);
      (1, 1 lsl 40, 128); (0, 7, 128); (1, 6, 8) ]
  in
  fill t recs;
  check (Alcotest.list record) "records" recs (collect t);
  check int "count" (List.length recs) (Trace_store.records t)

let test_roundtrip_across_tiny_chunks () =
  (* minimum-size chunks: one record per chunk, so decoder state (the
     delta base and the sticky width) must flow across every boundary *)
  let t = Trace_store.create ~chunk_bytes:Trace_store.max_record_bytes () in
  let rng = Random.State.make [| 3; 14 |] in
  let recs =
    List.init 1000 (fun _ ->
        ( Random.State.int rng 2,
          Random.State.full_int rng (1 lsl 40),
          8 * (1 + Random.State.int rng 4) ))
  in
  fill t recs;
  check (Alcotest.list record) "records" recs (collect t);
  check bool "many chunks" true (Trace_store.chunks t > 100)

let test_stride1_compression () =
  let t = Trace_store.create () in
  fill t (List.init 10_000 (fun i -> (0, 8 * i, 8)));
  check bool
    (Printf.sprintf "%.2f bytes/record on a stride-1 sweep"
       (Trace_store.bytes_per_record t))
    true
    (Trace_store.bytes_per_record t < 3.0)

let qcheck_roundtrip =
  let open QCheck in
  let rec_gen =
    Gen.map3
      (fun k a b -> ((if k then 1 else 0), a, 1 + b))
      Gen.bool
      Gen.(oneof [ int_range 0 4096; int_range 0 (1 lsl 50) ])
      Gen.(int_range 0 256)
  in
  let print recs =
    String.concat "; "
      (List.map (fun (k, a, b) -> Printf.sprintf "%d:%d/%d" k a b) recs)
  in
  Test.make ~count:200 ~name:"encode/decode round trip"
    (make ~print Gen.(list_size (int_range 0 400) rec_gen))
    (fun recs ->
      let t = Trace_store.create ~chunk_bytes:64 () in
      fill t recs;
      collect t = recs && Trace_store.records t = List.length recs)

(* --- replay bit-identity ---------------------------------------------------- *)

let machines = [ Bw_machine.Machine.origin2000; Bw_machine.Machine.exemplar ]

(* Machines differing in everything a capture must be independent of:
   write policy, page translation, and array layout stagger. *)
let variant_machines =
  [ Machine.origin2000;
    { Machine.origin2000 with
      Machine.name = "origin-wt";
      cache_write_policy = Cache.Write_through };
    { Machine.origin2000 with
      Machine.name = "origin-paged";
      paging = Machine.Random_pages { page_bytes = 4096; seed = 7 } };
    { Machine.exemplar with
      Machine.name = "exemplar-stagger";
      array_stagger_bytes = Machine.exemplar.Machine.array_stagger_bytes + 32 } ]

let check_replay ~what ~engine p =
  let c = Run.capture ~engine p in
  List.iter2
    (fun machine streamed ->
      let direct = Run.simulate ~engine ~machine p in
      let replayed = Run.replay ~machine c in
      check bool
        (Printf.sprintf "%s on %s" what machine.Machine.name)
        true
        (Run.equal_result direct replayed);
      check bool
        (Printf.sprintf "%s streamed on %s" what machine.Machine.name)
        true
        (Run.equal_result direct streamed))
    machines
    (Run.simulate_many ~engine ~machines p)

let test_registry_replay_compiled () =
  List.iter
    (fun e ->
      check_replay ~what:e.Bw_workloads.Registry.name ~engine:`Compiled
        (e.Bw_workloads.Registry.build ~scale:1))
    Bw_workloads.Registry.all

let test_registry_replay_interpreted () =
  List.iter
    (fun e ->
      check_replay ~what:e.Bw_workloads.Registry.name ~engine:`Interpreted
        (e.Bw_workloads.Registry.build ~scale:1))
    Bw_workloads.Registry.all

let qcheck_replay_variants =
  QCheck.Test.make ~count:25
    ~name:"replay = simulate (generated programs, machine variants)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let p = Bw_qa.Gen.generate ~seed ~size:4 in
      let c = Run.capture p in
      let streamed machines =
        List.for_all2
          (fun machine r -> Run.equal_result (Run.simulate ~machine p) r)
          machines
          (Run.simulate_many ~machines p)
      in
      List.for_all
        (fun machine ->
          Run.equal_result (Run.simulate ~machine p) (Run.replay ~machine c))
        variant_machines
      (* all four: canonical addresses, re-based per machine; the three
         origin variants lay arrays out alike: that layout's addresses *)
      && streamed variant_machines
      && streamed (List.filteri (fun i _ -> i < 3) variant_machines))

let test_replay_many_parallel_deterministic () =
  let p = Bw_workloads.Kernels.mm ~order:Bw_workloads.Kernels.Jki ~n:48 () in
  let ms = variant_machines @ [ Machine.exemplar ] in
  let c = Run.capture p in
  let serial = List.map (fun machine -> Run.replay ~machine c) ms in
  let fanned = Run.replay_many ~jobs:4 ~machines:ms c in
  List.iter2
    (fun a b ->
      check bool
        (Printf.sprintf "jobs:4 result for %s" a.Run.machine.Machine.name)
        true (Run.equal_result a b))
    serial fanned

(* --- reuse fast path vs exact simulator ------------------------------------- *)

let l2_machine l2_kb =
  { Machine.origin2000 with
    Machine.name = Printf.sprintf "L2=%dKB" l2_kb;
    caches =
      [ { Cache.size_bytes = 2 * 1024; line_bytes = 32; associativity = 2 };
        { Cache.size_bytes = l2_kb * 1024; line_bytes = 128; associativity = 2 } ] }

let test_reuse_fast_path_vs_exact () =
  let p = Bw_workloads.Kernels.mm ~order:Bw_workloads.Kernels.Jki ~n:64 () in
  let c = Run.capture p in
  let reuse = Run.reuse_of_capture ~granularity:128 c in
  let exact_lines l2_kb =
    Cache.memory_lines_in (Run.replay ~machine:(l2_machine l2_kb) c).Run.cache
  in
  let predicted l2_kb =
    Reuse.misses reuse ~capacity_blocks:(l2_kb * 1024 / 128)
  in
  (* Once the working set fits, both models count exactly the compulsory
     lines — equality, not tolerance. *)
  List.iter
    (fun kb ->
      check int (Printf.sprintf "%d KB: compulsory only" kb) (exact_lines kb)
        (predicted kb))
    [ 64; 128; 256; 1024 ];
  (* Well below the working set the models agree within a few percent.
     (The 32 KB knee is deliberately excluded: there the 2-way cache
     retains the set-partitioned matrix that global LRU thrashes, a
     genuine associativity effect, not a profiler error.) *)
  let exact = float_of_int (exact_lines 16) in
  let pred = float_of_int (predicted 16) in
  check bool
    (Printf.sprintf "16 KB: |%.0f - %.0f| within 5%%" pred exact)
    true
    (Float.abs (pred -. exact) /. exact < 0.05)

let suites =
  [ ( "machine.trace_store",
      [ Alcotest.test_case "edge records" `Quick test_roundtrip_edge_records;
        Alcotest.test_case "tiny chunks" `Quick test_roundtrip_across_tiny_chunks;
        Alcotest.test_case "stride-1 compression" `Quick test_stride1_compression;
        QCheck_alcotest.to_alcotest ~long:false qcheck_roundtrip ] );
    ( "exec.replay",
      [ Alcotest.test_case "registry, compiled engine" `Slow
          test_registry_replay_compiled;
        Alcotest.test_case "registry, interpreted engine" `Slow
          test_registry_replay_interpreted;
        QCheck_alcotest.to_alcotest ~long:false qcheck_replay_variants;
        Alcotest.test_case "replay_many ~jobs:4 = serial replay" `Quick
          test_replay_many_parallel_deterministic;
        Alcotest.test_case "reuse fast path vs exact sweep" `Quick
          test_reuse_fast_path_vs_exact ] )
  ]
