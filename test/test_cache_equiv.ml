(* Property tests: the optimised cache access path (shift/mask address
   splitting, hot-line memos, unrolled probes) must be bit-identical to
   the div/mod reference model ([~fast:false]) in every observable
   counter, on arbitrary traces and geometries. *)

open Bw_machine

(* --- trace model --------------------------------------------------------- *)

type op =
  | Read of int * int  (* addr, bytes *)
  | Write of int * int
  | Clear  (* mid-trace [Cache.clear] must also keep the models in sync *)

let apply cache op =
  match op with
  | Read (addr, bytes) -> Cache.read cache ~addr ~bytes
  | Write (addr, bytes) -> Cache.write cache ~addr ~bytes
  | Clear -> Cache.clear cache

let op_gen ~with_clear =
  let open QCheck.Gen in
  (* Addresses concentrated in a few KB so sets collide and LRU order,
     evictions and write-backs are actually exercised; a sprinkle of
     large addresses covers tag turnover.  Sizes cross line
     boundaries. *)
  let addr =
    oneof
      [ int_range 0 4096;
        map (fun x -> x * 8) (int_range 0 2048);
        int_range 0 (1 lsl 20)
      ]
  in
  let bytes = oneof [ return 8; return 4; return 1; int_range 1 40 ] in
  let access = map3 (fun k a b -> if k then Read (a, b) else Write (a, b))
      bool addr bytes
  in
  if with_clear then
    frequency [ (40, access); (1, return Clear) ]
  else access

let trace_gen ~with_clear =
  QCheck.Gen.(list_size (int_range 0 600) (op_gen ~with_clear))

let trace_print ops =
  String.concat "; "
    (List.map
       (function
         | Read (a, b) -> Printf.sprintf "R %d/%d" a b
         | Write (a, b) -> Printf.sprintf "W %d/%d" a b
         | Clear -> "clear")
       ops)

let trace_arb ~with_clear =
  QCheck.make ~print:trace_print (trace_gen ~with_clear)

(* --- comparison ---------------------------------------------------------- *)

let stats_to_list (s : Cache.level_stats) =
  [ ("reads", s.Cache.reads);
    ("writes", s.Cache.writes);
    ("read_misses", s.Cache.read_misses);
    ("write_misses", s.Cache.write_misses);
    ("writebacks", s.Cache.writebacks)
  ]

let assert_same ?(names = ("fast", "reference")) ~what fast reference =
  let a, b = names in
  for i = 0 to Cache.level_count fast - 1 do
    List.iter2
      (fun (name, f) (_, r) ->
        if f <> r then
          QCheck.Test.fail_reportf "%s: level %d %s differ: %s=%d %s=%d" what
            i name a f b r)
      (stats_to_list (Cache.stats fast i))
      (stats_to_list (Cache.stats reference i))
  done;
  if Cache.memory_lines_in fast <> Cache.memory_lines_in reference then
    QCheck.Test.fail_reportf "%s: memory_lines_in differ: %s=%d %s=%d" what a
      (Cache.memory_lines_in fast)
      b
      (Cache.memory_lines_in reference);
  if Cache.memory_lines_out fast <> Cache.memory_lines_out reference then
    QCheck.Test.fail_reportf "%s: memory_lines_out differ: %s=%d %s=%d" what a
      (Cache.memory_lines_out fast)
      b
      (Cache.memory_lines_out reference)

let equiv_property ~name ?write_policy ?(count = 300) ~trace geometries =
  QCheck.Test.make ~count ~name trace (fun ops ->
      let fast = Cache.create ?write_policy ~fast:true geometries in
      let reference = Cache.create ?write_policy ~fast:false geometries in
      List.iter
        (fun op ->
          apply fast op;
          apply reference op)
        ops;
      assert_same ~what:"before flush" fast reference;
      Cache.flush fast;
      Cache.flush reference;
      assert_same ~what:"after flush" fast reference;
      true)

(* --- recycled storage ------------------------------------------------------ *)

(* [retire] resets the slots a cache filled and hands its storage to the
   free list, and the next [create] of that geometry takes it back (the
   list is last-in first-out).  A second trace must then count on that
   storage exactly what it counts on a cache created while the first was
   live, whose storage is new: no other test retires a cache with these
   slot counts.  The first trace may end with dirty lines unflushed. *)
let recycle_property ~name ?write_policy ~fast geometries =
  QCheck.Test.make ~count:300 ~name
    (QCheck.triple QCheck.bool (trace_arb ~with_clear:true)
       (trace_arb ~with_clear:false))
    (fun (flush_first, first, second) ->
      let used = Cache.create ?write_policy ~fast geometries in
      List.iter (apply used) first;
      if flush_first then Cache.flush used;
      let fresh = Cache.create ?write_policy ~fast geometries in
      Cache.retire used;
      let recycled = Cache.create ?write_policy ~fast geometries in
      List.iter
        (fun op ->
          apply recycled op;
          apply fresh op)
        second;
      let names = ("recycled", "fresh") in
      assert_same ~names ~what:"before flush" recycled fresh;
      Cache.flush recycled;
      Cache.flush fresh;
      assert_same ~names ~what:"after flush" recycled fresh;
      true)

(* --- geometries ---------------------------------------------------------- *)

let direct_mapped =
  (* 32 sets x 1 way x 32B: pure shift/mask fast path *)
  [ { Cache.size_bytes = 1024; line_bytes = 32; associativity = 1 } ]

let two_way =
  (* 16 sets x 2 ways x 16B: unrolled 2-way probe *)
  [ { Cache.size_bytes = 512; line_bytes = 16; associativity = 2 } ]

let non_pow2_sets =
  (* 6 sets x 2 ways x 16B: set count not a power of two, so the fast
     path must fall back to div/mod indexing for this level *)
  [ { Cache.size_bytes = 192; line_bytes = 16; associativity = 2 } ]

let four_way =
  (* 8 sets x 4 ways x 32B: generic probe loop inside the fast path *)
  [ { Cache.size_bytes = 1024; line_bytes = 32; associativity = 4 } ]

let two_level =
  (* small L1 over a larger L2 with longer lines, like Origin2000 *)
  [ { Cache.size_bytes = 256; line_bytes = 16; associativity = 2 };
    { Cache.size_bytes = 2048; line_bytes = 64; associativity = 2 }
  ]

let two_level_mixed =
  (* pow2 L1 over a non-pow2-set L2: fast and fallback in one hierarchy *)
  [ { Cache.size_bytes = 128; line_bytes = 16; associativity = 1 };
    { Cache.size_bytes = 768; line_bytes = 32; associativity = 2 }
  ]

(* --- flush: fill-log walk and dirty-byte scan ------------------------------ *)

(* Two levels of many slots: 1,024 (512 sets x 2 ways x 32 B) over
   4,096 (1,024 sets x 4 ways x 64 B).  The fast model's flush walks a
   level's sorted fill log when the log holds under 1/64 of its slots
   and scans the dirty bytes otherwise; the reference model always
   scans.  [few_lines] fills at most 8 lines per level (under 1/128 of
   either level), [every_slot] fills every slot of both, so each flush
   path is held to the reference scan. *)
let roomy =
  [ { Cache.size_bytes = 32 * 1024; line_bytes = 32; associativity = 2 };
    { Cache.size_bytes = 256 * 1024; line_bytes = 64; associativity = 4 }
  ]

(* Up to 8 one-line accesses, 64 KB apart plus a small offset: they
   share an L2 set or two (and a few L1 sets), so 5 or more evict there
   and write-backs cascade during the flush. *)
let few_lines =
  let open QCheck.Gen in
  let access =
    map3
      (fun k (j, bytes) write ->
        let addr = (k * 64 * 1024) + (j * 8) in
        if write then Write (addr, bytes) else Read (addr, bytes))
      (int_range 0 9)
      (pair (int_range 0 15) (int_range 1 8))
      bool
  in
  QCheck.make ~print:trace_print (list_size (int_range 0 8) access)

(* A sweep of 8,192 consecutive 32-byte lines (256 KB: four lines per L2
   set, sixteen per L1 set), each read or written, then a tail of mixed
   accesses. *)
let every_slot =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    (map3
       (fun base writes tail ->
         List.mapi
           (fun k write ->
             let addr = base + (32 * k) in
             if write then Write (addr, 8) else Read (addr, 8))
           writes
         @ tail)
       (map (fun x -> x * 8) (int_range 0 512))
       (list_repeat 8192 bool)
       (list_size (int_range 0 100) (op_gen ~with_clear:false)))

let mixed = trace_arb ~with_clear:false
let mixed_with_clear = trace_arb ~with_clear:true

let properties =
  [ equiv_property ~name:"direct-mapped, write-back" ~trace:mixed
      direct_mapped;
    equiv_property ~name:"2-way, write-back" ~trace:mixed two_way;
    equiv_property ~name:"2-way, write-through"
      ~write_policy:Cache.Write_through ~trace:mixed two_way;
    equiv_property ~name:"non-pow2 sets, write-back" ~trace:mixed
      non_pow2_sets;
    equiv_property ~name:"non-pow2 sets, write-through"
      ~write_policy:Cache.Write_through ~trace:mixed non_pow2_sets;
    equiv_property ~name:"4-way, write-back" ~trace:mixed four_way;
    equiv_property ~name:"two-level, write-back" ~trace:mixed two_level;
    equiv_property ~name:"two-level mixed pow2/non-pow2, write-back"
      ~trace:mixed two_level_mixed;
    equiv_property ~name:"two-level, write-back, mid-trace clear"
      ~trace:mixed_with_clear two_level;
    equiv_property ~name:"2-way, write-through, mid-trace clear"
      ~write_policy:Cache.Write_through ~trace:mixed_with_clear two_way;
    equiv_property ~name:"roomy two-level, few lines filled (log walk)"
      ~count:1000 ~trace:few_lines roomy;
    equiv_property ~name:"roomy two-level, every slot filled (dirty scan)"
      ~count:40 ~trace:every_slot roomy
  ]

let recycle_properties =
  List.concat_map
    (fun (model, fast) ->
      List.map
        (fun (policy, write_policy) ->
          recycle_property ~name:(model ^ ", " ^ policy) ~write_policy ~fast
            two_level)
        [ ("write-back", Cache.Write_back);
          ("write-through", Cache.Write_through) ])
    [ ("fast", true); ("reference", false) ]

let suites =
  [ ( "cache fast/reference equivalence",
      List.map (QCheck_alcotest.to_alcotest ~long:false) properties );
    ( "cache recycled storage counts as new",
      List.map (QCheck_alcotest.to_alcotest ~long:false) recycle_properties )
  ]
