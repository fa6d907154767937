(* Flat ring buffer of memory-reference records.  See trace_buffer.mli. *)

let slot_width = 3

(* 85 records are 255 words, within OCaml's [Max_young_wosize] (256):
   the largest record-aligned buffer the runtime allocates on the minor
   heap.  A short run's sink and re-based copies are therefore born and
   collected young, and the records stay resident in the host's L1
   between drains. *)
let capacity = 85

type t = {
  data : int array; (* slot_width ints per record: kind, addr, bytes *)
  mutable len : int;
  on_full : t -> unit;
  mutable flushes : int;
}

let kind_load = 0
let kind_store = 1

let create ~on_full () =
  { data = Array.make (capacity * slot_width) 0;
    len = 0;
    on_full;
    flushes = 0 }

let length t = t.len
let reset t = t.len <- 0

let[@inline] record t kind addr bytes =
  if t.len = capacity then begin
    t.flushes <- t.flushes + 1;
    t.on_full t;
    t.len <- 0
  end;
  let i = t.len * slot_width in
  let data = t.data in
  Array.unsafe_set data i kind;
  Array.unsafe_set data (i + 1) addr;
  Array.unsafe_set data (i + 2) bytes;
  t.len <- t.len + 1

let[@inline] load t ~addr ~bytes = record t kind_load addr bytes
let[@inline] store t ~addr ~bytes = record t kind_store addr bytes

let iter t ~f =
  let data = t.data in
  for r = 0 to t.len - 1 do
    let i = r * slot_width in
    f
      (Array.unsafe_get data i)
      (Array.unsafe_get data (i + 1))
      (Array.unsafe_get data (i + 2))
  done

let drain t ~f =
  iter t ~f;
  t.len <- 0

let flush t =
  if t.len > 0 then begin
    t.flushes <- t.flushes + 1;
    t.on_full t;
    t.len <- 0
  end

let flushes t = t.flushes
