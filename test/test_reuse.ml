open Bw_machine

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let feed t addrs = List.iter (fun a -> Reuse.access t ~addr:a) addrs

(* --- basic distances -------------------------------------------------------- *)

let test_cold_only () =
  let t = Reuse.create ~granularity:8 () in
  feed t [ 0; 8; 16; 24 ];
  check int "total" 4 (Reuse.total t);
  check int "all cold" 4 (Reuse.cold t);
  check int "footprint" 4 (Reuse.footprint_blocks t)

let test_immediate_reuse () =
  let t = Reuse.create ~granularity:8 () in
  feed t [ 0; 0; 0 ];
  check int "one cold" 1 (Reuse.cold t);
  (* two reuses at distance 0 *)
  check (Alcotest.list (Alcotest.pair int int)) "histogram" [ (0, 2) ]
    (Reuse.histogram t)

let test_distance_counting () =
  let t = Reuse.create ~granularity:8 () in
  (* a b c a : the reuse of a has distance 2 (b and c in between) *)
  feed t [ 0; 8; 16; 0 ];
  check int "cold" 3 (Reuse.cold t);
  check
    (Alcotest.list (Alcotest.pair int int))
    "distance 2 bucket [2,4)" [ (2, 1) ] (Reuse.histogram t)

let test_duplicates_not_distinct () =
  let t = Reuse.create ~granularity:8 () in
  (* a b b b a : reuse distance of the last a is 1 (only block b) *)
  feed t [ 0; 8; 8; 8; 0 ];
  let hist = Reuse.histogram t in
  check bool "contains distance-1 bucket" true (List.mem_assoc 1 hist);
  check int "distance-1 count" 1 (List.assoc 1 hist)

let test_granularity_blocks () =
  let t = Reuse.create ~granularity:32 () in
  (* same 32-byte block: 0 and 24 alias *)
  feed t [ 0; 24 ];
  check int "one cold" 1 (Reuse.cold t);
  check int "footprint one block" 1 (Reuse.footprint_blocks t)

let test_misses_monotone () =
  let t = Reuse.create ~granularity:8 () in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 2000 do
    Reuse.access t ~addr:(8 * Random.State.int rng 128)
  done;
  let sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let misses = List.map (fun c -> Reuse.misses t ~capacity_blocks:c) sizes in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  check bool "miss count non-increasing in capacity" true (decreasing misses);
  check int "infinite cache = cold misses" (Reuse.cold t)
    (Reuse.misses t ~capacity_blocks:(1 lsl 20))

(* --- proration at non-power-of-two capacities -------------------------------- *)

(* Three reuses all at distance 4 land in bucket [4,8).  Capacity 6 sits
   halfway through, so the prorated miss share is 0.5 * 3 = 1.5: rounding
   to nearest gives 2 (truncation used to give 1). *)
let test_proration_rounds_to_nearest () =
  let t = Reuse.create ~granularity:8 () in
  (* A B C D E A / F G H I J F / K L M N O K : distance 4 each *)
  List.iter
    (fun base ->
      feed t (List.init 5 (fun i -> 8 * (base + i)));
      feed t [ 8 * base ])
    [ 0; 10; 20 ];
  check int "cold" 15 (Reuse.cold t);
  check (Alcotest.list (Alcotest.pair int int)) "one [4,8) bucket"
    [ (4, 3) ] (Reuse.histogram t);
  check int "capacity 6 rounds 1.5 up" (15 + 2)
    (Reuse.misses t ~capacity_blocks:6)

(* At the bucket boundaries no proration happens: capacity = lo counts
   the whole bucket as misses, capacity = hi counts it entirely as hits. *)
let test_proration_boundaries_pinned () =
  let t = Reuse.create ~granularity:8 () in
  List.iter
    (fun base ->
      feed t (List.init 5 (fun i -> 8 * (base + i)));
      feed t [ 8 * base ])
    [ 0; 10; 20 ];
  check int "capacity = lo: whole bucket misses" (15 + 3)
    (Reuse.misses t ~capacity_blocks:4);
  check int "capacity = hi: whole bucket hits" 15
    (Reuse.misses t ~capacity_blocks:8)

(* --- Fenwick growth ----------------------------------------------------------- *)

(* Naive O(n^2) oracle: distance = distinct blocks strictly between the
   two accesses to the same block. *)
let naive_profile addrs ~granularity =
  let arr = Array.of_list (List.map (fun a -> a / granularity) addrs) in
  let n = Array.length arr in
  let last = Hashtbl.create 64 in
  let cold = ref 0 in
  let buckets = Hashtbl.create 16 in
  let bucket_of d =
    if d = 0 then 0
    else begin
      let rec log2 x acc = if x <= 1 then acc else log2 (x lsr 1) (acc + 1) in
      1 lsl log2 d 0
    end
  in
  for i = 0 to n - 1 do
    (match Hashtbl.find_opt last arr.(i) with
    | None -> incr cold
    | Some j ->
      let seen = Hashtbl.create 16 in
      for k = j + 1 to i - 1 do
        Hashtbl.replace seen arr.(k) ()
      done;
      let b = bucket_of (Hashtbl.length seen) in
      Hashtbl.replace buckets b
        (1 + Option.value ~default:0 (Hashtbl.find_opt buckets b)));
    Hashtbl.replace last arr.(i) i
  done;
  let hist =
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) buckets []
    |> List.sort compare
  in
  (!cold, hist)

(* --- oracle: fully associative LRU cache ------------------------------------- *)

let lru_misses addrs ~granularity ~capacity_blocks =
  let cache =
    Cache.create
      [ { Cache.size_bytes = granularity * capacity_blocks;
          line_bytes = granularity;
          associativity = capacity_blocks } ]
  in
  List.iter (fun a -> Cache.read cache ~addr:a ~bytes:1) addrs;
  let s = Cache.stats cache 0 in
  s.Cache.read_misses

(* 5000 accesses grow the 1024-slot bit array three times (at 1024, 2048
   and 4096), so the rebuilt Fenwick trees answer the same prefix sums
   as incrementally built ones — checked against the quadratic oracle. *)
let test_growth_preserves_histogram () =
  let rng = Random.State.make [| 42; 7 |] in
  let addrs = List.init 5000 (fun _ -> 8 * Random.State.int rng 300) in
  let t = Reuse.create ~granularity:8 () in
  feed t addrs;
  let cold, hist = naive_profile addrs ~granularity:8 in
  (* the stamp clock is rewound by compaction; the access count isn't *)
  check int "total survives compaction" (List.length addrs) (Reuse.total t);
  check int "cold" cold (Reuse.cold t);
  check (Alcotest.list (Alcotest.pair int int)) "histogram" hist
    (Reuse.histogram t);
  List.iter
    (fun capacity ->
      check int
        (Printf.sprintf "misses at capacity %d" capacity)
        (lru_misses addrs ~granularity:8 ~capacity_blocks:capacity)
        (Reuse.misses t ~capacity_blocks:capacity))
    [ 1; 4; 16; 64; 256 ]

let test_matches_fully_associative_lru () =
  (* at power-of-two capacities the bucketed histogram is exact *)
  for seed = 1 to 10 do
    let rng = Random.State.make [| seed; 5 |] in
    let addrs =
      List.init 1500 (fun _ -> 32 * Random.State.int rng 200)
    in
    let t = Reuse.create ~granularity:32 () in
    feed t addrs;
    List.iter
      (fun capacity ->
        let predicted = Reuse.misses t ~capacity_blocks:capacity in
        let actual = lru_misses addrs ~granularity:32 ~capacity_blocks:capacity in
        check int
          (Printf.sprintf "seed %d capacity %d" seed capacity)
          actual predicted)
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  done

(* --- program profiles ---------------------------------------------------------- *)

let test_streaming_program_profile () =
  let p = Bw_workloads.Simple_example.read_loop ~n:50_000 in
  let t = Bw_exec.Run.reuse_profile ~granularity:32 p in
  (* one pass, 4 doubles per 32-byte block: 1/4 cold, 3/4 distance-0 *)
  check int "accesses" 50_000 (Reuse.total t);
  check int "cold = blocks" (Reuse.footprint_blocks t) (Reuse.cold t);
  check bool "mostly immediate reuse" true
    (match List.assoc_opt 0 (Reuse.histogram t) with
    | Some c -> c > 35_000
    | None -> false)

let test_blocked_mm_shifts_curve () =
  (* blocking moves reuse distances below the block working set *)
  let plain = Bw_exec.Run.reuse_profile ~granularity:32
      (Bw_workloads.Registry.with_params "mm_jki" [ ("n", 96) ]) in
  let blocked = Bw_exec.Run.reuse_profile ~granularity:32
      (Bw_workloads.Registry.with_params "mm_blocked" [ ("n", 96); ("tile", 24) ]) in
  (* at a capacity holding ~3 tiles but not 3 matrices, blocked mm hits *)
  let capacity = 1024 (* blocks of 32B = 32 KB *) in
  let mr_plain = Reuse.miss_ratio plain ~capacity_blocks:capacity in
  let mr_blocked = Reuse.miss_ratio blocked ~capacity_blocks:capacity in
  check bool
    (Printf.sprintf "blocked %.4f < plain %.4f" mr_blocked mr_plain)
    true
    (mr_blocked < 0.5 *. mr_plain)

let test_curve_shape () =
  let p = Bw_workloads.Registry.with_params "dmxpy" [ ("n", 96) ] in
  let t = Bw_exec.Run.reuse_profile ~granularity:32 p in
  let curve = Reuse.curve t ~sizes:[ 1024; 32 * 1024; 1024 * 1024 ] in
  match curve with
  | [ (_, small); (_, mid); (_, large) ] ->
    check bool "monotone" true (small >= mid && mid >= large);
    check bool "big cache only cold misses" true (large < 0.2)
  | _ -> Alcotest.fail "expected three points"

(* --- QCheck ---------------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"cold + finite = total" ~count:100
      (small_list small_nat) (fun addrs ->
        let t = Reuse.create ~granularity:8 () in
        List.iter (fun a -> Reuse.access t ~addr:(8 * a)) addrs;
        let finite =
          List.fold_left (fun acc (_, c) -> acc + c) 0 (Reuse.histogram t)
        in
        Reuse.cold t + finite = Reuse.total t);
    Test.make ~name:"capacity-1 misses = non-consecutive-repeat accesses"
      ~count:100 (small_list (int_bound 6)) (fun blocks ->
        let t = Reuse.create ~granularity:8 () in
        List.iter (fun b -> Reuse.access t ~addr:(8 * b)) blocks;
        (* with one block of capacity, only immediate repeats hit *)
        let rec expected prev = function
          | [] -> 0
          | b :: rest ->
            (if Some b = prev then 0 else 1) + expected (Some b) rest
        in
        Reuse.misses t ~capacity_blocks:1 = expected None blocks) ]

let suites =
  [ ( "machine.reuse",
      [ Alcotest.test_case "cold only" `Quick test_cold_only;
        Alcotest.test_case "immediate reuse" `Quick test_immediate_reuse;
        Alcotest.test_case "distance counting" `Quick test_distance_counting;
        Alcotest.test_case "duplicates not distinct" `Quick test_duplicates_not_distinct;
        Alcotest.test_case "granularity" `Quick test_granularity_blocks;
        Alcotest.test_case "misses monotone" `Quick test_misses_monotone;
        Alcotest.test_case "proration rounds to nearest" `Quick
          test_proration_rounds_to_nearest;
        Alcotest.test_case "proration boundaries pinned" `Quick
          test_proration_boundaries_pinned;
        Alcotest.test_case "growth preserves histogram" `Slow
          test_growth_preserves_histogram;
        Alcotest.test_case "matches fully-assoc LRU" `Slow test_matches_fully_associative_lru ] );
    ( "machine.reuse_profiles",
      [ Alcotest.test_case "streaming profile" `Quick test_streaming_program_profile;
        Alcotest.test_case "blocking shifts curve" `Quick test_blocked_mm_shifts_curve;
        Alcotest.test_case "curve shape" `Quick test_curve_shape ] );
    ("machine.reuse_properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases)
  ]
