type geometry = { size_bytes : int; line_bytes : int; associativity : int }

exception Bad_geometry of string

type level_stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable writebacks : int;
}

(* Per-slot state is organised for the locality of the simulator itself:
   a 4 MB level model is 32 K slots, and a simulated access that touches
   tag, timestamp and recency state in three separate arrays costs three
   real cache misses per probe.  Instead the tag and the LRU timestamp
   of a slot are interleaved in one [meta] array (tag at [2*slot],
   last_use at [2*slot + 1]), so probing a whole set walks consecutive
   words of one or two host cache lines.  A slot is invalid iff its tag
   is -1 (real tags are always >= 0), and dirty bits live in a Bytes.t
   (1 byte per slot instead of a boxed-bool word).

   That table is sized by the modelled capacity, not by the program:
   32 K slots for a 4 MB level, whatever the run touches.  So the table,
   the dirty bytes and a log of the slots filled since the last reset
   form one [storage], drawn by [create] from a free list and handed
   back by [retire], which resets only the logged slots.  A run then
   pays for the lines it fills, not for the capacity it models. *)
type storage = {
  meta : int array;
  dirty : Bytes.t; (* '\001' = dirty *)
  (* the slots whose tag went from invalid to valid since the last
     reset: every valid slot, each once, so the log never outgrows the
     slot count.  Fill order until [flush] sorts it; [reset_storage]
     needs only the set *)
  mutable fills : int array;
  mutable n_fills : int;
}

type level = {
  geometry : geometry;
  n_sets : int;
  (* fast-path geometry: line_bytes is always a power of two, so line
     extraction is a shift; set/tag splits use masks only when n_sets is
     also a power of two (true for every shipped machine model) *)
  line_shift : int;
  pow2_sets : bool;
  set_mask : int; (* n_sets - 1, meaningful iff pow2_sets *)
  set_shift : int; (* log2 n_sets, meaningful iff pow2_sets *)
  (* way-major: slot = set * associativity + way; see layout note above.
     [meta] and [dirty] are [store]'s, kept here for the probe paths *)
  meta : int array;
  dirty : Bytes.t;
  store : storage;
  (* hot-line memo: the line address and slot of the last access at this
     level, or -1.  Stride-1 traces re-touch the same line line_bytes/8
     times in a row; the memo turns those repeats into O(1) hits that
     bypass the set/tag split and the LRU bookkeeping entirely. *)
  mutable hot_line : int;
  mutable hot_slot : int;
  stats : level_stats;
}

type write_policy = Write_back | Write_through

type t = {
  levels : level array;
  policy : write_policy;
  fast : bool;
  top_shift : int; (* log2 of the top level's line size (3 if uncached) *)
  (* mirror of level 0's hot-line memo and hot record fields, kept in
     this record so the overwhelmingly common single-line repeat access
     touches one cache line instead of chasing levels.(0): for an
     uncached hierarchy hot0_line stays -1 (addresses are >= 0, so it
     never matches) and the other two mirrors are dummies *)
  mutable hot0_line : int;
  mutable hot0_slot : int;
  l0_stats : level_stats;
  l0_dirty : Bytes.t;
  mutable clock : int;
  mutable mem_lines_in : int;
  mutable mem_lines_out : int;
  mem_line_bytes : int; (* line size used to charge memory traffic *)
  mutable retired : bool; (* storage handed back: stats only *)
}

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let log2_exact x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let fresh_stats () =
  { reads = 0; writes = 0; read_misses = 0; write_misses = 0; writebacks = 0 }

let clean = Char.chr 0
let dirty_mark = Char.chr 1

(* meta accessors; the timestamp of a slot is only ever read after its
   tag has been installed, so initialising everything to -1 is fine *)
let[@inline] tag_of level slot = Array.unsafe_get level.meta (2 * slot)

(* --- slot storage ---------------------------------------------------------- *)

(* Free storage by slot count, most recently retired first.  Storage
   enters the list only from [retire], so it never holds more than was
   live at once; the lock serves the domains of [Pool]. *)
let free : (int, storage list) Hashtbl.t = Hashtbl.create 8
let free_lock = Mutex.create ()

let take_storage slots =
  let reused =
    Mutex.protect free_lock (fun () ->
        match Hashtbl.find_opt free slots with
        | Some (st :: rest) ->
          Hashtbl.replace free slots rest;
          Some st
        | Some [] | None -> None)
  in
  match reused with
  | Some st -> st
  | None ->
    { meta = Array.make (2 * slots) (-1);
      dirty = Bytes.make slots clean;
      fills = [||];
      n_fills = 0 }

let give_storage (st : storage) =
  let slots = Bytes.length st.dirty in
  Mutex.protect free_lock (fun () ->
      let rest = Option.value ~default:[] (Hashtbl.find_opt free slots) in
      Hashtbl.replace free slots (st :: rest))

(* Log a fill of an invalid slot: called on the miss path only, just
   before the tag is installed. *)
let note_fill (st : storage) slot =
  let n = st.n_fills in
  if n = Array.length st.fills then begin
    let grown = Array.make (min (Bytes.length st.dirty) (max 16 (2 * n))) 0 in
    Array.blit st.fills 0 grown 0 n;
    st.fills <- grown
  end;
  Array.unsafe_set st.fills n slot;
  st.n_fills <- n + 1

(* Invalidate the logged slots, returning the storage to the state
   [take_storage] allocates: every slot's tag, timestamp and dirty byte
   are only ever set after its first fill. *)
let reset_storage (st : storage) =
  for k = 0 to st.n_fills - 1 do
    let slot = st.fills.(k) in
    st.meta.(2 * slot) <- -1;
    st.meta.((2 * slot) + 1) <- -1;
    Bytes.set st.dirty slot clean
  done;
  st.n_fills <- 0

let make_level g =
  if g.size_bytes <= 0 || g.line_bytes <= 0 || g.associativity <= 0 then
    raise (Bad_geometry "non-positive cache parameter");
  if not (is_power_of_two g.line_bytes) then
    raise (Bad_geometry "line size must be a power of two");
  if g.size_bytes mod (g.line_bytes * g.associativity) <> 0 then
    raise (Bad_geometry "size not divisible by line * associativity");
  let n_sets = g.size_bytes / (g.line_bytes * g.associativity) in
  let store = take_storage (n_sets * g.associativity) in
  let pow2_sets = is_power_of_two n_sets in
  { geometry = g;
    n_sets;
    line_shift = log2_exact g.line_bytes;
    pow2_sets;
    set_mask = (if pow2_sets then n_sets - 1 else 0);
    set_shift = (if pow2_sets then log2_exact n_sets else 0);
    meta = store.meta;
    dirty = store.dirty;
    store;
    hot_line = -1;
    hot_slot = -1;
    stats = fresh_stats () }

let create ?(write_policy = Write_back) ?(fast = true) geometries =
  let levels = Array.of_list (List.map make_level geometries) in
  let mem_line_bytes =
    match Array.length levels with
    | 0 -> 8 (* uncached machine: charge memory per 8-byte word *)
    | n -> levels.(n - 1).geometry.line_bytes
  in
  let top_shift =
    if Array.length levels = 0 then 3 else levels.(0).line_shift
  in
  let l0_stats =
    if Array.length levels = 0 then fresh_stats () else levels.(0).stats
  in
  let l0_dirty =
    if Array.length levels = 0 then Bytes.make 1 clean else levels.(0).dirty
  in
  { levels; policy = write_policy; fast; top_shift;
    hot0_line = -1; hot0_slot = -1; l0_stats; l0_dirty;
    clock = 0; mem_lines_in = 0; mem_lines_out = 0; mem_line_bytes;
    retired = false }

let level_count t = Array.length t.levels

let geometry t i =
  if i < 0 || i >= Array.length t.levels then invalid_arg "Cache.geometry";
  t.levels.(i).geometry

let stats t i =
  if i < 0 || i >= Array.length t.levels then invalid_arg "Cache.stats";
  t.levels.(i).stats

let stats_snapshot t =
  Array.to_list t.levels
  |> List.map (fun level ->
         let s = level.stats in
         { reads = s.reads;
           writes = s.writes;
           read_misses = s.read_misses;
           write_misses = s.write_misses;
           writebacks = s.writebacks })

(* --- reference model ----------------------------------------------------- *)

(* The straightforward div/mod + linear-scan implementation.  The fast
   path below must stay bit-identical to it in every counter; the
   equivalence is property-tested in test/test_cache_equiv.ml. *)
let rec access_ref t i ~byte_addr ~is_write =
  if i >= Array.length t.levels then begin
    (* main memory *)
    if is_write then t.mem_lines_out <- t.mem_lines_out + 1
    else t.mem_lines_in <- t.mem_lines_in + 1
  end
  else begin
    let level = t.levels.(i) in
    let g = level.geometry in
    let meta = level.meta in
    let line_addr = byte_addr / g.line_bytes in
    let set = line_addr mod level.n_sets in
    let tag = line_addr / level.n_sets in
    let s = level.stats in
    if is_write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
    t.clock <- t.clock + 1;
    let base = set * g.associativity in
    (* look for a hit (tags are >= 0, so invalid slots never match) *)
    let hit_way = ref (-1) in
    for w = 0 to g.associativity - 1 do
      if meta.(2 * (base + w)) = tag then hit_way := w
    done;
    if !hit_way >= 0 then begin
      let slot = base + !hit_way in
      meta.((2 * slot) + 1) <- t.clock;
      match t.policy with
      | Write_back -> if is_write then Bytes.set level.dirty slot dirty_mark
      | Write_through ->
        (* hit updates the line; the store still goes down *)
        if is_write then begin
          s.writebacks <- s.writebacks + 1;
          access_ref t (i + 1) ~byte_addr ~is_write:true
        end
    end
    else if t.policy = Write_through && is_write then begin
      (* no-write-allocate: count the miss, forward the store *)
      s.write_misses <- s.write_misses + 1;
      s.writebacks <- s.writebacks + 1;
      access_ref t (i + 1) ~byte_addr ~is_write:true
    end
    else begin
      if is_write then s.write_misses <- s.write_misses + 1
      else s.read_misses <- s.read_misses + 1;
      (* choose victim: invalid way if any, else LRU *)
      let victim = ref (-1) in
      for w = 0 to g.associativity - 1 do
        if !victim < 0 && meta.(2 * (base + w)) < 0 then victim := w
      done;
      if !victim < 0 then begin
        let best = ref 0 in
        for w = 1 to g.associativity - 1 do
          if meta.((2 * (base + w)) + 1) < meta.((2 * (base + !best)) + 1)
          then best := w
        done;
        victim := !best
      end;
      let slot = base + !victim in
      if meta.(2 * slot) >= 0 && Bytes.get level.dirty slot = dirty_mark
      then begin
        s.writebacks <- s.writebacks + 1;
        let victim_line = (meta.(2 * slot) * level.n_sets) + set in
        access_ref t (i + 1) ~byte_addr:(victim_line * g.line_bytes)
          ~is_write:true
      end;
      (* fetch the line from below (write-allocate on stores) *)
      access_ref t (i + 1) ~byte_addr ~is_write:false;
      if meta.(2 * slot) < 0 then note_fill level.store slot;
      meta.(2 * slot) <- tag;
      Bytes.set level.dirty slot (if is_write then dirty_mark else clean);
      meta.((2 * slot) + 1) <- t.clock
    end
  end

(* --- fast path ----------------------------------------------------------- *)

(* Same observable behaviour as [access_ref], with two structural changes
   that cannot alter any counter:

   - power-of-two set/tag splits use shifts and masks instead of / and
     mod (line splits always do: line sizes are powers of two by
     construction);
   - the hot-line memo short-circuits an access to the same line as the
     previous access at this level.  That line is necessarily resident
     and already the most recently used entry of its set, so skipping
     the clock tick and the last_use refresh preserves the relative LRU
     order every future victim choice is based on. *)
let rec access_fast t i ~byte_addr ~is_write =
  if i >= Array.length t.levels then begin
    if is_write then t.mem_lines_out <- t.mem_lines_out + 1
    else t.mem_lines_in <- t.mem_lines_in + 1
  end
  else begin
    let level = Array.unsafe_get t.levels i in
    let line_addr = byte_addr lsr level.line_shift in
    let s = level.stats in
    if is_write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
    if line_addr = level.hot_line then begin
      if is_write then begin
        match t.policy with
        | Write_back -> Bytes.unsafe_set level.dirty level.hot_slot dirty_mark
        | Write_through ->
          s.writebacks <- s.writebacks + 1;
          access_fast t (i + 1) ~byte_addr ~is_write:true
      end
    end
    else access_cold t level i ~byte_addr ~line_addr ~is_write
  end

(* the not-hot-line part of an access, kept out of [access_fast] so the
   memo hit path stays small *)
and access_cold t level i ~byte_addr ~line_addr ~is_write =
  let s = level.stats in
  let set =
    if level.pow2_sets then line_addr land level.set_mask
    else line_addr mod level.n_sets
  in
  let tag =
    if level.pow2_sets then line_addr lsr level.set_shift
    else line_addr / level.n_sets
  in
  t.clock <- t.clock + 1;
  let g = level.geometry in
  let assoc = g.associativity in
  let mbase = 2 * set * assoc in
  let meta = level.meta in
  (* 1- and 2-way sets (every shipped model) probe without a loop *)
  let hit_way =
    if assoc = 2 then
      if Array.unsafe_get meta mbase = tag then 0
      else if Array.unsafe_get meta (mbase + 2) = tag then 1
      else -1
    else if assoc = 1 then
      if Array.unsafe_get meta mbase = tag then 0 else -1
    else begin
      let found = ref (-1) in
      for w = 0 to assoc - 1 do
        if Array.unsafe_get meta (mbase + (2 * w)) = tag then found := w
      done;
      !found
    end
  in
  if hit_way >= 0 then begin
    let slot = (set * assoc) + hit_way in
    Array.unsafe_set meta (mbase + (2 * hit_way) + 1) t.clock;
    level.hot_line <- line_addr;
    level.hot_slot <- slot;
    if i = 0 then begin
      t.hot0_line <- line_addr;
      t.hot0_slot <- slot
    end;
    match t.policy with
    | Write_back ->
      if is_write then Bytes.unsafe_set level.dirty slot dirty_mark
    | Write_through ->
      if is_write then begin
        s.writebacks <- s.writebacks + 1;
        access_fast t (i + 1) ~byte_addr ~is_write:true
      end
  end
  else if t.policy = Write_through && is_write then begin
    (* no-write-allocate: the hot line (if any) is untouched *)
    s.write_misses <- s.write_misses + 1;
    s.writebacks <- s.writebacks + 1;
    access_fast t (i + 1) ~byte_addr ~is_write:true
  end
  else begin
    if is_write then s.write_misses <- s.write_misses + 1
    else s.read_misses <- s.read_misses + 1;
    let victim =
      if assoc = 1 then 0
      else if assoc = 2 then
        if Array.unsafe_get meta mbase < 0 then 0
        else if Array.unsafe_get meta (mbase + 2) < 0 then 1
        else if
          Array.unsafe_get meta (mbase + 3) < Array.unsafe_get meta (mbase + 1)
        then 1
        else 0
      else begin
        let victim = ref (-1) in
        for w = 0 to assoc - 1 do
          if !victim < 0 && Array.unsafe_get meta (mbase + (2 * w)) < 0 then
            victim := w
        done;
        if !victim < 0 then begin
          let best = ref 0 in
          for w = 1 to assoc - 1 do
            if
              Array.unsafe_get meta (mbase + (2 * w) + 1)
              < Array.unsafe_get meta (mbase + (2 * !best) + 1)
            then best := w
          done;
          victim := !best
        end;
        !victim
      end
    in
    let slot = (set * assoc) + victim in
    let mslot = mbase + (2 * victim) in
    let old_tag = Array.unsafe_get meta mslot in
    let next_is_mem = i + 1 >= Array.length t.levels in
    if old_tag >= 0 && Bytes.unsafe_get level.dirty slot = dirty_mark
    then begin
      s.writebacks <- s.writebacks + 1;
      if next_is_mem then t.mem_lines_out <- t.mem_lines_out + 1
      else begin
        let victim_line = (old_tag * level.n_sets) + set in
        access_fast t (i + 1) ~byte_addr:(victim_line lsl level.line_shift)
          ~is_write:true
      end
    end;
    if next_is_mem then t.mem_lines_in <- t.mem_lines_in + 1
    else access_fast t (i + 1) ~byte_addr ~is_write:false;
    if old_tag < 0 then note_fill level.store slot;
    Array.unsafe_set meta mslot tag;
    Bytes.unsafe_set level.dirty slot (if is_write then dirty_mark else clean);
    Array.unsafe_set meta (mslot + 1) t.clock;
    level.hot_line <- line_addr;
    level.hot_slot <- slot;
    if i = 0 then begin
      t.hot0_line <- line_addr;
      t.hot0_slot <- slot
    end
  end

let access_line t i ~byte_addr ~is_write =
  if t.fast then access_fast t i ~byte_addr ~is_write
  else access_ref t i ~byte_addr ~is_write

let check_live t =
  if t.retired then invalid_arg "Cache: retired cache"

let check_access t ~addr ~bytes =
  check_live t;
  if bytes <= 0 then invalid_arg "Cache: non-positive access size";
  if addr < 0 then invalid_arg "Cache: negative address"

(* read/write iterate the touched lines inline (no closure per access).
   The single-line case — nearly every access: an 8-byte word inside a
   >= 32-byte line — probes the L1 hot-line mirror in [t] without even
   entering the recursion; the entry points are kept tiny so they can be
   inlined at call sites.

   The mirror test is safe before argument validation: [hot0_line] only
   ever holds line numbers of validated (non-negative) addresses, and a
   negative [addr] shifts (logically) to a line number no valid address
   can produce, so invalid arguments always fall through to the cold
   entry and its [check_access].  When [t.fast] is false the mirror
   stays -1 and likewise never matches, as it does once [retire] has
   reset it, so a retired cache refuses every access there too. *)

let read_cold t ~addr ~bytes =
  check_access t ~addr ~bytes;
  let sh = t.top_shift in
  let first = addr lsr sh and last = (addr + bytes - 1) lsr sh in
  if t.fast then begin
    if first = last then
      access_fast t 0 ~byte_addr:(first lsl sh) ~is_write:false
    else
      for l = first to last do
        access_fast t 0 ~byte_addr:(l lsl sh) ~is_write:false
      done
  end
  else
    for l = first to last do
      access_ref t 0 ~byte_addr:(l lsl sh) ~is_write:false
    done

let[@inline] read t ~addr ~bytes =
  let sh = t.top_shift in
  let first = addr lsr sh in
  if
    first = t.hot0_line
    && first = (addr + bytes - 1) lsr sh
    && bytes > 0
  then begin
    let s = t.l0_stats in
    s.reads <- s.reads + 1
  end
  else read_cold t ~addr ~bytes

let write_cold t ~addr ~bytes =
  check_access t ~addr ~bytes;
  let sh = t.top_shift in
  let first = addr lsr sh and last = (addr + bytes - 1) lsr sh in
  if t.fast then begin
    if first = last then
      access_fast t 0 ~byte_addr:(first lsl sh) ~is_write:true
    else
      for l = first to last do
        access_fast t 0 ~byte_addr:(l lsl sh) ~is_write:true
      done
  end
  else
    for l = first to last do
      access_ref t 0 ~byte_addr:(l lsl sh) ~is_write:true
    done

let[@inline] write t ~addr ~bytes =
  let sh = t.top_shift in
  let first = addr lsr sh in
  if
    first = t.hot0_line
    && t.policy = Write_back
    && first = (addr + bytes - 1) lsr sh
    && bytes > 0
  then begin
    let s = t.l0_stats in
    s.writes <- s.writes + 1;
    Bytes.unsafe_set t.l0_dirty t.hot0_slot dirty_mark
  end
  else write_cold t ~addr ~bytes

let memory_lines_in t = t.mem_lines_in
let memory_lines_out t = t.mem_lines_out
let memory_bytes_in t = t.mem_lines_in * t.mem_line_bytes
let memory_bytes_out t = t.mem_lines_out * t.mem_line_bytes

let boundary_bytes t i =
  if i < 0 || i >= Array.length t.levels then invalid_arg "Cache.boundary_bytes";
  let s = t.levels.(i).stats in
  (s.read_misses + s.write_misses + s.writebacks)
  * t.levels.(i).geometry.line_bytes

(* Sort [a.(0) .. a.(n - 1)] ascending in place: a heapsort, so the
   flush of a short fill log allocates nothing. *)
let sort_prefix (a : int array) n =
  let rec sift root limit =
    let child = (2 * root) + 1 in
    if child < limit then begin
      let child =
        if child + 1 < limit && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > a.(root) then begin
        let x = a.(root) in
        a.(root) <- a.(child);
        a.(child) <- x;
        sift child limit
      end
    end
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

(* A fill log under 1/64 of a level's slots is sorted and walked.  On
   Origin2000's 32 K-slot L2 the two flushes cost about the same at 512
   filled lines (25 us); at 16 the walk takes 0.7 us and the scan 15,
   while at 1,024 the sort alone outweighs the scan. *)
let log_walk_share = 64

let flush t =
  (* Evict dirty lines top-down so L1 dirt propagates through L2, each
     level in slot order.  Every valid slot, hence every dirty one, is in
     the level's fill log, so the fast model walks the sorted log when
     it is short and visits the dirty slots the scan of the dirty bytes
     would, in the same order: a small run's flush then follows the
     lines it filled, not the slots it models.  Otherwise, and always in
     the reference model, the dirty bytes are scanned a 64-bit word at a
     time, since almost all of them are clean.  Write-backs only reach
     the levels below, so a level's log does not move while it is
     walked. *)
  check_live t;
  for i = 0 to Array.length t.levels - 1 do
    let level = t.levels.(i) in
    let g = level.geometry in
    let slots = Bytes.length level.dirty in
    let dirty = level.dirty in
    let flush_slot slot =
      if Bytes.unsafe_get dirty slot = dirty_mark && tag_of level slot >= 0
      then begin
        let set = slot / g.associativity in
        let line_addr = (tag_of level slot * level.n_sets) + set in
        level.stats.writebacks <- level.stats.writebacks + 1;
        Bytes.unsafe_set dirty slot clean;
        access_line t (i + 1) ~byte_addr:(line_addr * g.line_bytes)
          ~is_write:true
      end
    in
    let st = level.store in
    if t.fast && st.n_fills * log_walk_share < slots then begin
      sort_prefix st.fills st.n_fills;
      for k = 0 to st.n_fills - 1 do
        flush_slot (Array.unsafe_get st.fills k)
      done
    end
    else begin
      let words = slots / 8 in
      for w = 0 to words - 1 do
        if Bytes.get_int64_le dirty (w * 8) <> 0L then
          for slot = w * 8 to (w * 8) + 7 do
            flush_slot slot
          done
      done;
      for slot = words * 8 to slots - 1 do
        flush_slot slot
      done
    end
  done

let forget_hot_lines t =
  t.hot0_line <- -1;
  t.hot0_slot <- -1;
  Array.iter
    (fun level ->
      level.hot_line <- -1;
      level.hot_slot <- -1)
    t.levels

let clear t =
  check_live t;
  t.clock <- 0;
  t.mem_lines_in <- 0;
  t.mem_lines_out <- 0;
  forget_hot_lines t;
  Array.iter
    (fun level ->
      reset_storage level.store;
      let s = level.stats in
      s.reads <- 0;
      s.writes <- 0;
      s.read_misses <- 0;
      s.write_misses <- 0;
      s.writebacks <- 0)
    t.levels

let retire t =
  if not t.retired then begin
    t.retired <- true;
    forget_hot_lines t;
    Array.iter
      (fun level ->
        reset_storage level.store;
        give_storage level.store)
      t.levels
  end
