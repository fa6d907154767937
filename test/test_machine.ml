open Bw_machine

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-6

let small_geometry =
  (* 4 sets x 2 ways x 16B lines = 128 bytes *)
  { Cache.size_bytes = 128; line_bytes = 16; associativity = 2 }

(* --- Cache --------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create [ small_geometry ] in
  Cache.read c ~addr:0 ~bytes:8;
  Cache.read c ~addr:8 ~bytes:8;
  let s = Cache.stats c 0 in
  check int "reads" 2 s.Cache.reads;
  check int "one miss (same line)" 1 s.Cache.read_misses;
  check int "memory lines" 1 (Cache.memory_lines_in c)

let test_cache_line_granularity () =
  let c = Cache.create [ small_geometry ] in
  (* an access spanning two lines touches both *)
  Cache.read c ~addr:12 ~bytes:8;
  let s = Cache.stats c 0 in
  check int "two line accesses" 2 s.Cache.reads;
  check int "two misses" 2 s.Cache.read_misses

let test_cache_lru_eviction () =
  let c = Cache.create [ small_geometry ] in
  (* set 0 holds lines with line_addr mod 4 = 0: addresses 0, 64, 128 *)
  Cache.read c ~addr:0 ~bytes:8;
  Cache.read c ~addr:64 ~bytes:8;
  Cache.read c ~addr:128 ~bytes:8;
  (* evicts line 0 (LRU) *)
  Cache.read c ~addr:0 ~bytes:8;
  let s = Cache.stats c 0 in
  check int "all four miss" 4 s.Cache.read_misses

let test_cache_lru_refresh () =
  let c = Cache.create [ small_geometry ] in
  Cache.read c ~addr:0 ~bytes:8;
  Cache.read c ~addr:64 ~bytes:8;
  Cache.read c ~addr:0 ~bytes:8;
  (* refresh line 0: now 64 is LRU *)
  Cache.read c ~addr:128 ~bytes:8;
  (* evicts 64 *)
  Cache.read c ~addr:0 ~bytes:8;
  (* still a hit *)
  let s = Cache.stats c 0 in
  check int "misses" 3 s.Cache.read_misses;
  check int "hits" 2 (s.Cache.reads - s.Cache.read_misses)

let test_cache_writeback () =
  let c = Cache.create [ small_geometry ] in
  Cache.write c ~addr:0 ~bytes:8;
  (* dirty line in set 0 *)
  Cache.read c ~addr:64 ~bytes:8;
  Cache.read c ~addr:128 ~bytes:8;
  (* evicts dirty line 0 -> writeback *)
  let s = Cache.stats c 0 in
  check int "writebacks" 1 s.Cache.writebacks;
  check int "memory lines out" 1 (Cache.memory_lines_out c)

let test_cache_write_allocate () =
  let c = Cache.create [ small_geometry ] in
  Cache.write c ~addr:0 ~bytes:8;
  let s = Cache.stats c 0 in
  check int "write miss" 1 s.Cache.write_misses;
  (* write-allocate fetches the line from memory *)
  check int "line fetched" 1 (Cache.memory_lines_in c);
  Cache.read c ~addr:8 ~bytes:8;
  check int "subsequent read hits" 0 s.Cache.read_misses

let test_cache_flush () =
  let c = Cache.create [ small_geometry ] in
  Cache.write c ~addr:0 ~bytes:8;
  Cache.write c ~addr:16 ~bytes:8;
  check int "nothing written yet" 0 (Cache.memory_lines_out c);
  Cache.flush c;
  check int "both lines flushed" 2 (Cache.memory_lines_out c);
  Cache.flush c;
  check int "flush idempotent" 2 (Cache.memory_lines_out c)

let test_cache_two_levels () =
  let l2 = { Cache.size_bytes = 512; line_bytes = 32; associativity = 2 } in
  let c = Cache.create [ small_geometry; l2 ] in
  Cache.read c ~addr:0 ~bytes:8;
  let s1 = Cache.stats c 0 and s2 = Cache.stats c 1 in
  check int "L1 miss" 1 s1.Cache.read_misses;
  check int "L2 read" 1 s2.Cache.reads;
  check int "L2 miss" 1 s2.Cache.read_misses;
  (* L1 eviction of a clean line does not touch L2 *)
  Cache.read c ~addr:64 ~bytes:8;
  Cache.read c ~addr:128 ~bytes:8;
  check int "L2 reads grow with L1 misses" 3 s2.Cache.reads

let test_cache_direct_mapped_conflicts () =
  let direct = { Cache.size_bytes = 128; line_bytes = 16; associativity = 1 } in
  let c = Cache.create [ direct ] in
  (* two addresses 128 apart map to the same set and thrash *)
  for _ = 1 to 10 do
    Cache.read c ~addr:0 ~bytes:8;
    Cache.read c ~addr:128 ~bytes:8
  done;
  let s = Cache.stats c 0 in
  check int "all conflict misses" 20 s.Cache.read_misses

let test_cache_bad_geometry () =
  Alcotest.check_raises "line not power of two"
    (Cache.Bad_geometry "line size must be a power of two") (fun () ->
      ignore
        (Cache.create
           [ { Cache.size_bytes = 120; line_bytes = 24; associativity = 1 } ]))

let test_cache_clear () =
  let c = Cache.create [ small_geometry ] in
  Cache.write c ~addr:0 ~bytes:8;
  Cache.clear c;
  let s = Cache.stats c 0 in
  check int "stats reset" 0 s.Cache.writes;
  Cache.read c ~addr:0 ~bytes:8;
  check int "contents invalidated" 1 s.Cache.read_misses

(* A retired cache answers every statistics reader as before and
   refuses every access, the repeat of its last access (the L1 hot-line
   mirror's case) included. *)
let test_cache_retire () =
  let l2 = { Cache.size_bytes = 768; line_bytes = 32; associativity = 2 } in
  let c = Cache.create [ small_geometry; l2 ] in
  for i = 0 to 40 do
    Cache.write c ~addr:(16 * i) ~bytes:8;
    Cache.read c ~addr:(48 * i) ~bytes:8
  done;
  let readers () =
    ( Cache.level_count c,
      List.init 2 (Cache.geometry c),
      Cache.stats_snapshot c,
      List.init 2 (fun i ->
          let s = Cache.stats c i in
          [ s.Cache.reads; s.Cache.writes; s.Cache.read_misses;
            s.Cache.write_misses; s.Cache.writebacks ]),
      [ Cache.memory_lines_in c; Cache.memory_lines_out c;
        Cache.memory_bytes_in c; Cache.memory_bytes_out c;
        Cache.boundary_bytes c 0; Cache.boundary_bytes c 1 ] )
  in
  let before = readers () in
  check bool "lines reached memory" true (Cache.memory_lines_in c > 0);
  Cache.retire c;
  check bool "every reader answers as before" true (before = readers ());
  let refused what f =
    Alcotest.check_raises what (Invalid_argument "Cache: retired cache") f
  in
  refused "read of the hot line" (fun () ->
      Cache.read c ~addr:(48 * 40) ~bytes:8);
  refused "write of the hot line" (fun () ->
      Cache.write c ~addr:(48 * 40) ~bytes:8);
  refused "read" (fun () -> Cache.read c ~addr:0 ~bytes:8);
  refused "flush" (fun () -> Cache.flush c);
  refused "clear" (fun () -> Cache.clear c);
  Cache.retire c;
  check bool "a second retire changes nothing" true (before = readers ())

let test_write_through_hit_forwards () =
  let c = Cache.create ~write_policy:Cache.Write_through [ small_geometry ] in
  Cache.read c ~addr:0 ~bytes:8;
  (* line present: the store updates it and still goes to memory *)
  Cache.write c ~addr:0 ~bytes:8;
  check int "store forwarded" 1 (Cache.memory_lines_out c);
  Cache.write c ~addr:0 ~bytes:8;
  check int "every store forwarded" 2 (Cache.memory_lines_out c)

let test_write_through_no_allocate () =
  let c = Cache.create ~write_policy:Cache.Write_through [ small_geometry ] in
  Cache.write c ~addr:0 ~bytes:8;
  (* miss: no fetch, store goes straight down *)
  check int "no line fetched" 0 (Cache.memory_lines_in c);
  check int "store forwarded" 1 (Cache.memory_lines_out c);
  Cache.read c ~addr:0 ~bytes:8;
  let s = Cache.stats c 0 in
  check int "read still misses (no allocation happened)" 1 s.Cache.read_misses

let test_write_through_reads_like_write_back () =
  let wb = Cache.create [ small_geometry ] in
  let wt = Cache.create ~write_policy:Cache.Write_through [ small_geometry ] in
  for i = 0 to 63 do
    Cache.read wb ~addr:(8 * i) ~bytes:8;
    Cache.read wt ~addr:(8 * i) ~bytes:8
  done;
  check int "same read misses" (Cache.stats wb 0).Cache.read_misses
    (Cache.stats wt 0).Cache.read_misses

(* --- Machine / balance ----------------------------------------------------- *)

let test_origin_balance () =
  let b = Machine.balance Machine.origin2000 in
  check Alcotest.(list string) "boundaries"
    [ "L1-Reg"; "L2-L1"; "Mem-L2" ]
    (Machine.boundary_names Machine.origin2000);
  match b with
  | [ reg; l2; mem ] ->
    check flt "register balance" 4.0 reg;
    check flt "cache balance" 4.0 l2;
    check flt "memory balance" 0.8 mem
  | _ -> Alcotest.fail "expected three boundaries"

let test_scaled_machine () =
  let m =
    Machine.scaled ~name:"2x" ~memory_factor:2.0 Machine.origin2000
  in
  match Machine.balance m with
  | [ _; _; mem ] -> check flt "memory doubled" 1.6 mem
  | _ -> Alcotest.fail "expected three boundaries"

(* --- Layout ------------------------------------------------------------------ *)

let test_layout_packed () =
  let l = Layout.assign ~stagger_bytes:0 [ ("a", 100); ("b", 50) ] in
  let a = Layout.base l "a" and b = Layout.base l "b" in
  check bool "ordered" true (a < b);
  check bool "8-aligned" true (a mod 8 = 0 && b mod 8 = 0);
  check bool "no overlap" true (b >= a + 100)

let test_layout_stagger () =
  let l = Layout.assign ~stagger_bytes:4096 [ ("a", 8); ("b", 8) ] in
  check bool "stagger" true (Layout.base l "b" - Layout.base l "a" >= 4096)

let test_layout_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Layout.assign: duplicate variable a") (fun () ->
      ignore (Layout.assign ~stagger_bytes:0 [ ("a", 8); ("a", 8) ]))

(* --- Translate ----------------------------------------------------------------- *)

let test_translate_identity () =
  check int "identity" 12345 (Translate.apply Translate.identity 12345)

let test_translate_hashed_properties () =
  let t = Translate.hashed ~page_bytes:4096 ~seed:7 in
  (* offsets within a page are preserved *)
  let a = Translate.apply t 4096 in
  let b = Translate.apply t 4100 in
  check int "offset preserved" 4 (b - a);
  (* mapping is stable *)
  check int "stable" a (Translate.apply t 4096);
  (* distinct pages stay distinct *)
  let pages = List.init 200 (fun i -> Translate.apply t (i * 4096) / 4096) in
  let distinct = List.sort_uniq compare pages in
  check int "injective" 200 (List.length distinct)

let test_translate_reset () =
  let t = Translate.hashed ~page_bytes:4096 ~seed:7 in
  let a = Translate.apply t 0 in
  Translate.reset t;
  (* deterministic: same first draw after reset *)
  check int "deterministic" a (Translate.apply t 0)

(* --- Timing -------------------------------------------------------------------- *)

let counters_with ~flops ~loads ~stores =
  let c = Counters.create () in
  c.Counters.flops <- flops;
  c.Counters.loads <- loads;
  c.Counters.stores <- stores;
  c

let test_timing_cpu_bound () =
  let m = Machine.origin2000 in
  let cache = Machine.fresh_cache m in
  (* no memory traffic at all: CPU binds *)
  let c = counters_with ~flops:1_000_000 ~loads:0 ~stores:0 in
  let b = Timing.predict m cache c in
  check Alcotest.string "binding" "CPU" b.Timing.binding_resource;
  check flt "time" (1_000_000.0 /. 390e6) b.Timing.total

let test_timing_memory_bound () =
  let m = Machine.origin2000 in
  let cache = Machine.fresh_cache m in
  (* stream 1M doubles with almost no compute *)
  for i = 0 to 999_999 do
    Cache.read cache ~addr:(8 * i) ~bytes:8
  done;
  let c = counters_with ~flops:1000 ~loads:1_000_000 ~stores:0 in
  let b = Timing.predict m cache c in
  check Alcotest.string "binding" "Mem-L2" b.Timing.binding_resource;
  let bw = Timing.effective_bandwidth m cache c in
  (* effective bandwidth approaches the 312 MB/s configured supply *)
  check bool "near machine bandwidth" true (bw > 280e6 && bw <= 315e6)

(* The write-back penalty applies on the memory bus only, and each term
   is named by [Machine.boundary_names]. *)
let test_timing_bound_terms () =
  let b =
    Timing.bound Machine.origin2000 ~flops:390e6 ~register_bytes:0.0
      ~levels:[ (1560e6, 1560e6); (312e6, 312e6) ]
  in
  check flt "cpu" 1.0 b.Timing.cpu_time;
  check (Alcotest.list Alcotest.string) "names" [ "L2-L1"; "Mem-L2" ]
    (List.map fst b.Timing.boundary_times);
  check (Alcotest.list flt) "boundaries" [ 2.0; 2.15 ]
    (List.map snd b.Timing.boundary_times);
  check Alcotest.string "binding" "Mem-L2" b.Timing.binding_resource;
  check flt "total" 2.15 b.Timing.total

(* Every tier prices time through [Timing.bound], so each refuses a
   machine whose bandwidths do not match its caches instead of pricing
   a boundary at a stand-in bandwidth. *)
let test_timing_bound_mismatch () =
  let m = { Machine.origin2000 with Machine.cache_bandwidths = [ 312e6 ] } in
  let p = (Option.get (Bw_workloads.Registry.find "dmxpy")).build ~scale:1 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s priced one bandwidth for two caches" what
    | exception Invalid_argument _ -> ()
  in
  refused "bound" (fun () ->
      Timing.bound m ~flops:1.0 ~register_bytes:8.0
        ~levels:[ (32.0, 0.0); (128.0, 0.0) ]);
  refused "the analytic tier" (fun () -> Bw_exec.Evaluate.of_program ~machine:m p);
  refused "the reuse tier" (fun () ->
      Bw_exec.Evaluate.of_reuse ~machine:m
        (Bw_exec.Run.reuse_pass
           ~granularities:[ Bw_exec.Evaluate.reuse_granularity m ] p));
  refused "the exact tier" (fun () -> Bw_exec.Run.simulate ~machine:m p)

let test_timing_utilisation_capped () =
  let m = Machine.origin2000 in
  let cache = Machine.fresh_cache m in
  for i = 0 to 99_999 do
    Cache.read cache ~addr:(8 * i) ~bytes:8
  done;
  let c = counters_with ~flops:1 ~loads:100_000 ~stores:0 in
  let u = Timing.memory_utilisation m cache c in
  check bool "in [0,1]" true (u >= 0.0 && u <= 1.0);
  check bool "saturated" true (u > 0.9)

(* --- Probes --------------------------------------------------------------------- *)

let test_stream_calibration () =
  let r = Probes.stream ~elements:500_000 Machine.origin2000 in
  (* The Origin2000 model should sustain roughly its configured 312 MB/s
     on reads; STREAM-style accounting (no write-allocate traffic) lands
     copy/scale near 2/3 of that because a copy moves 3 bytes on the bus
     per 2 bytes STREAM credits. *)
  check bool "copy in range"
    true
    (r.Probes.copy > 100.0 && r.Probes.copy < 400.0);
  check bool "triad in range" true
    (r.Probes.triad > 100.0 && r.Probes.triad < 400.0)

let test_cache_read_curve_shape () =
  let curve =
    Probes.cache_read_curve Machine.origin2000
      ~sizes:[ 8 * 1024; 1024 * 1024; 32 * 1024 * 1024 ]
  in
  match curve with
  | [ (_, small); (_, mid); (_, large) ] ->
    (* in-cache working sets sustain far more bandwidth than memory *)
    check bool "L1 > L2" true (small > mid);
    check bool "L2 > memory" true (mid > large)
  | _ -> Alcotest.fail "expected three points"

let test_sustained_memory_bandwidth () =
  let bw = Probes.sustained_memory_bandwidth Machine.origin2000 in
  check bool "close to 312 MB/s" true (bw > 250e6 && bw <= 315e6)

(* --- QCheck --------------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"cache misses never exceed accesses" ~count:50
      (pair small_nat (small_list (pair small_nat bool)))
      (fun (assoc_raw, ops) ->
        let geometry =
          { Cache.size_bytes = 256;
            line_bytes = 16;
            associativity = 1 + (assoc_raw mod 4) }
        in
        let geometry =
          { geometry with
            size_bytes = 16 * geometry.Cache.associativity * 4 }
        in
        let c = Cache.create [ geometry ] in
        List.iter
          (fun (addr, is_write) ->
            let addr = addr * 8 in
            if is_write then Cache.write c ~addr ~bytes:8
            else Cache.read c ~addr ~bytes:8)
          ops;
        let s = Cache.stats c 0 in
        s.Cache.read_misses <= s.Cache.reads
        && s.Cache.write_misses <= s.Cache.writes);
    Test.make ~name:"memory traffic conservation" ~count:50
      (small_list small_nat) (fun addrs ->
        (* every fetched line was a last-level miss *)
        let c = Cache.create [ small_geometry ] in
        List.iter (fun a -> Cache.read c ~addr:(a * 8) ~bytes:8) addrs;
        let s = Cache.stats c 0 in
        Cache.memory_lines_in c = s.Cache.read_misses + s.Cache.write_misses);
    Test.make ~name:"higher associativity never hurts a stream" ~count:30
      small_nat (fun seed ->
        let mk assoc =
          Cache.create
            [ { Cache.size_bytes = 512; line_bytes = 16; associativity = assoc } ]
        in
        let c1 = mk 1 and c2 = mk 4 in
        let rng = Random.State.make [| seed |] in
        (* a handful of interleaved sequential streams *)
        let bases = Array.init 3 (fun i -> 1024 * i * (1 + Random.State.int rng 4)) in
        for i = 0 to 200 do
          Array.iter
            (fun base ->
              Cache.read c1 ~addr:(base + (8 * i)) ~bytes:8;
              Cache.read c2 ~addr:(base + (8 * i)) ~bytes:8)
            bases
        done;
        let m1 = (Cache.stats c1 0).Cache.read_misses in
        let m2 = (Cache.stats c2 0).Cache.read_misses in
        m2 <= m1) ]

let suites =
  [ ( "machine.cache",
      [ Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "line granularity" `Quick test_cache_line_granularity;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "LRU refresh" `Quick test_cache_lru_refresh;
        Alcotest.test_case "writeback" `Quick test_cache_writeback;
        Alcotest.test_case "write allocate" `Quick test_cache_write_allocate;
        Alcotest.test_case "flush" `Quick test_cache_flush;
        Alcotest.test_case "two levels" `Quick test_cache_two_levels;
        Alcotest.test_case "direct-mapped conflicts" `Quick test_cache_direct_mapped_conflicts;
        Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
        Alcotest.test_case "write-through hit" `Quick test_write_through_hit_forwards;
        Alcotest.test_case "write-through no-allocate" `Quick test_write_through_no_allocate;
        Alcotest.test_case "write-through reads" `Quick test_write_through_reads_like_write_back;
        Alcotest.test_case "clear" `Quick test_cache_clear;
        Alcotest.test_case "retired: stats readable, accesses refused" `Quick
          test_cache_retire ] );
    ( "machine.balance",
      [ Alcotest.test_case "origin2000" `Quick test_origin_balance;
        Alcotest.test_case "scaled" `Quick test_scaled_machine ] );
    ( "machine.layout",
      [ Alcotest.test_case "packed" `Quick test_layout_packed;
        Alcotest.test_case "stagger" `Quick test_layout_stagger;
        Alcotest.test_case "duplicate" `Quick test_layout_duplicate ] );
    ( "machine.translate",
      [ Alcotest.test_case "identity" `Quick test_translate_identity;
        Alcotest.test_case "hashed" `Quick test_translate_hashed_properties;
        Alcotest.test_case "reset" `Quick test_translate_reset ] );
    ( "machine.timing",
      [ Alcotest.test_case "cpu bound" `Quick test_timing_cpu_bound;
        Alcotest.test_case "memory bound" `Quick test_timing_memory_bound;
        Alcotest.test_case "bound's terms" `Quick test_timing_bound_terms;
        Alcotest.test_case "every tier refuses mismatched bandwidths" `Quick
          test_timing_bound_mismatch;
        Alcotest.test_case "utilisation capped" `Quick test_timing_utilisation_capped ] );
    ( "machine.probes",
      [ Alcotest.test_case "stream calibration" `Slow test_stream_calibration;
        Alcotest.test_case "cache curve shape" `Slow test_cache_read_curve_shape;
        Alcotest.test_case "sustained memory bw" `Slow test_sustained_memory_bandwidth ] );
    ("machine.properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases)
  ]
