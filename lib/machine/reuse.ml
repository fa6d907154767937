(* Fenwick (binary indexed) tree over access timestamps: position [i]
   holds 1 while timestamp [i] is the most recent access to its block.
   The raw bit array is kept alongside so the tree can be rebuilt when it
   grows or is compacted.

   The block -> last-stamp map is an open-addressing table (linear
   probing, power-of-two size, -1 = empty) rather than a Hashtbl: the
   lookup is one multiply-mix and usually one array probe, with no
   allocation — this map is hit once per profiled access, so it
   dominates the profiler's constant factor. *)
type t = {
  granularity : int;
  mutable keys : int array; (* block per slot; -1 = empty *)
  mutable stamps : int array; (* last-access stamp per occupied slot *)
  mutable entries : int;
  mutable bits : Bytes.t; (* bits.(t) = 1 if timestamp t is active *)
  mutable fen : int array; (* 1-based Fenwick over bits *)
  mutable time : int; (* stamp clock; rewound by compaction *)
  mutable accesses : int; (* monotonic, unlike the stamp clock *)
  mutable repeats : int; (* immediate same-block repeats, elided below *)
  mutable last_block : int;
  mutable cold : int;
  mutable finite_counts : int array; (* log2-bucket histogram *)
}

(* Every table starts under OCaml's 256-word [Max_young_wosize], so a
   profile of a small program is allocated and collected on the minor
   heap; [grow_table] and [ensure_capacity] size the tables by the
   footprint from there. *)
let create ~granularity () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Reuse.create: granularity must be a positive power of two";
  { granularity;
    keys = Array.make 128 (-1);
    stamps = Array.make 128 0;
    entries = 0;
    bits = Bytes.make 128 '\000';
    fen = Array.make 129 0;
    time = 0;
    accesses = 0;
    repeats = 0;
    last_block = min_int;
    cold = 0;
    finite_counts = Array.make 64 0 }

(* Slot holding [block], or the empty slot where it belongs. *)
let[@inline] slot keys block =
  let mask = Array.length keys - 1 in
  let h = block * 0x9E3779B1 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while
    let k = Array.unsafe_get keys !i in
    k >= 0 && k <> block
  do
    i := (!i + 1) land mask
  done;
  !i

let grow_table t =
  let old_keys = t.keys and old_stamps = t.stamps in
  let size' = 2 * Array.length old_keys in
  let keys' = Array.make size' (-1) in
  let stamps' = Array.make size' 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let s = slot keys' k in
        keys'.(s) <- k;
        stamps'.(s) <- old_stamps.(i)
      end)
    old_keys;
  t.keys <- keys';
  t.stamps <- stamps'

(* Standard in-place O(n) Fenwick construction: seed each leaf with its
   bit, then push every node's partial sum into its parent — instead of
   an O(n log n) point-update per set bit. *)
let rebuild_fen bits fen cap =
  for i = 0 to cap - 1 do
    fen.(i + 1) <- (if Bytes.unsafe_get bits i = '\001' then 1 else 0)
  done;
  for i = 1 to cap do
    let j = i + (i land -i) in
    if j <= cap then fen.(j) <- fen.(j) + fen.(i)
  done

(* Renumber the active timestamps 0..k-1, preserving their order.  Only
   relative order matters for distances (the count of active stamps
   between two accesses), so this is invisible to every query — and it
   keeps the bit array and Fenwick tree sized by the *footprint* rather
   than the access count, which is what makes long traces cheap: the
   structures stay cache-resident instead of growing with the trace. *)
let compact t =
  let cap = Bytes.length t.bits in
  let rev = Array.make t.time (-1) in
  Array.iteri (fun s k -> if k >= 0 then rev.(t.stamps.(s)) <- s) t.keys;
  let k = ref 0 in
  for i = 0 to t.time - 1 do
    let s = rev.(i) in
    if s >= 0 then begin
      t.stamps.(s) <- !k;
      incr k
    end
  done;
  Bytes.fill t.bits 0 cap '\000';
  Bytes.fill t.bits 0 !k '\001';
  t.time <- !k;
  rebuild_fen t.bits t.fen cap

let ensure_capacity t wanted =
  let cap = Bytes.length t.bits in
  if wanted >= cap then begin
    (* Compact in place when at least half the stamps are dead (the
       amortisation argument: each compaction frees >= cap/2 slots, so
       its O(cap) cost is O(1) per access); grow only when the live
       footprint genuinely needs the room. *)
    if 2 * t.entries <= cap then compact t
    else begin
      let cap' = max (2 * cap) (wanted + 1) in
      let bits' = Bytes.make cap' '\000' in
      Bytes.blit t.bits 0 bits' 0 cap;
      t.bits <- bits';
      let fen' = Array.make (cap' + 1) 0 in
      rebuild_fen bits' fen' cap';
      t.fen <- fen'
    end
  end

let fen_add t i delta =
  let n = Array.length t.fen - 1 in
  let rec go j =
    if j <= n then begin
      t.fen.(j) <- t.fen.(j) + delta;
      go (j + (j land -j))
    end
  in
  go (i + 1)

(* count of active timestamps in [0, i] *)
let fen_prefix t i =
  let rec go j acc =
    if j <= 0 then acc else go (j - (j land -j)) (acc + t.fen.(j))
  in
  go (i + 1) 0

let bucket_of d =
  if d = 0 then 0
  else begin
    let rec log2 x acc = if x <= 1 then acc else log2 (x lsr 1) (acc + 1) in
    1 + log2 d 0
  end

let access t ~addr =
  if addr < 0 then invalid_arg "Reuse.access: negative address";
  let block = addr / t.granularity in
  if block = t.last_block then begin
    (* Immediate repeat: distance 0, and the block's stamp is already
       the most recent active one, so no structure needs touching —
       re-stamping it would be a no-op for every later distance. *)
    t.finite_counts.(0) <- t.finite_counts.(0) + 1;
    t.repeats <- t.repeats + 1
  end
  else begin
    ensure_capacity t t.time;
    let s = slot t.keys block in
    if Array.unsafe_get t.keys s < 0 then begin
      t.cold <- t.cold + 1;
      Array.unsafe_set t.keys s block;
      Array.unsafe_set t.stamps s t.time;
      t.entries <- t.entries + 1;
      if 2 * t.entries > Array.length t.keys then grow_table t
    end
    else begin
      let t0 = Array.unsafe_get t.stamps s in
      (* distinct blocks touched strictly after t0 *)
      let active_after = fen_prefix t (t.time - 1) - fen_prefix t t0 in
      let b = bucket_of active_after in
      if b >= Array.length t.finite_counts then begin
        let counts' = Array.make (2 * b) 0 in
        Array.blit t.finite_counts 0 counts' 0 (Array.length t.finite_counts);
        t.finite_counts <- counts'
      end;
      t.finite_counts.(b) <- t.finite_counts.(b) + 1;
      (* deactivate the previous access *)
      Bytes.set t.bits t0 '\000';
      fen_add t t0 (-1);
      Array.unsafe_set t.stamps s t.time
    end;
    Bytes.set t.bits t.time '\001';
    fen_add t t.time 1;
    t.last_block <- block;
    t.time <- t.time + 1;
    t.accesses <- t.accesses + 1
  end

let total t = t.accesses + t.repeats
let cold t = t.cold
let footprint_blocks t = t.entries

let bucket_lower b = if b = 0 then 0 else 1 lsl (b - 1)

let histogram t =
  Array.to_list t.finite_counts
  |> List.mapi (fun b count -> (bucket_lower b, count))
  |> List.filter (fun (_, c) -> c > 0)

let misses t ~capacity_blocks =
  if capacity_blocks <= 0 then total t
  else begin
    (* finite distances >= capacity miss; bucket granularity makes this
       exact only at power-of-two capacities, so count buckets whose
       entire range is >= capacity and prorate the straddling bucket
       assuming a uniform distribution inside it. *)
    let hits_and_misses =
      Array.to_list t.finite_counts
      |> List.mapi (fun b count -> (b, count))
      |> List.fold_left
           (fun acc (b, count) ->
             if count = 0 then acc
             else begin
               let lo = bucket_lower b in
               let hi = if b = 0 then 1 else 2 * lo in
               if lo >= capacity_blocks then acc + count
               else if hi <= capacity_blocks then acc
               else begin
                 (* Straddling bucket: round the prorated count to the
                    nearest integer — truncation biased every mid-bucket
                    capacity towards hits. *)
                 let frac =
                   float_of_int (hi - capacity_blocks)
                   /. float_of_int (hi - lo)
                 in
                 acc + int_of_float ((frac *. float_of_int count) +. 0.5)
               end
             end)
           0
    in
    hits_and_misses + t.cold
  end

let miss_ratio t ~capacity_blocks =
  let n = total t in
  if n = 0 then 0.0
  else float_of_int (misses t ~capacity_blocks) /. float_of_int n

let curve t ~sizes =
  List.map
    (fun size ->
      (size, miss_ratio t ~capacity_blocks:(max 1 (size / t.granularity))))
    sizes

let footprint_bytes t = t.entries * t.granularity

let miss_curve t =
  if total t = 0 then []
  else begin
    let rec go cap acc =
      let acc = (cap * t.granularity, miss_ratio t ~capacity_blocks:cap) :: acc in
      if cap >= t.entries || cap > max_int / 4 then List.rev acc
      else go (cap * 2) acc
    in
    go 1 []
  end
