(* Chunked delta/varint-encoded trace store.  See trace_store.mli. *)

(* tag byte: bit 0 = kind (0 load / 1 store), bit 1 = bytes unchanged
   from the previous record; then zigzag varint of (addr - prev_addr);
   then, when bit 1 is clear, varint of bytes. *)

(* 1 tag byte + two worst-case 10-byte varints, rounded up. *)
let max_record_bytes = 24

let default_chunk_bytes = 64 * 1024

type t = {
  chunk_bytes : int;
  mutable filled : (Bytes.t * int) list; (* newest first *)
  mutable cur : Bytes.t;
  mutable cur_len : int;
  mutable records : int;
  (* encoder state; decoding replays it from (0, 0) *)
  mutable prev_addr : int;
  mutable prev_bytes : int;
}

let create ?(chunk_bytes = default_chunk_bytes) () =
  if chunk_bytes < max_record_bytes then
    invalid_arg "Trace_store.create: chunk_bytes too small";
  { chunk_bytes;
    filled = [];
    cur = Bytes.create chunk_bytes;
    cur_len = 0;
    records = 0;
    prev_addr = 0;
    prev_bytes = 0 }

let records t = t.records
let chunks t = List.length t.filled + 1

let encoded_bytes t =
  List.fold_left (fun acc (_, len) -> acc + len) t.cur_len t.filled

let bytes_per_record t =
  if t.records = 0 then 0.0
  else float_of_int (encoded_bytes t) /. float_of_int t.records

(* OCaml ints are 63-bit: bit 62 is the sign, so [asr 62] spreads it. *)
let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)
let[@inline] unzigzag z = (z lsr 1) lxor (- (z land 1))

let[@inline] put_varint data pos v =
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set data !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set data !pos (Char.unsafe_chr !v);
  !pos + 1

let append t ~kind ~addr ~bytes =
  if addr < 0 then invalid_arg "Trace_store.append: negative address";
  if t.cur_len > t.chunk_bytes - max_record_bytes then begin
    t.filled <- (t.cur, t.cur_len) :: t.filled;
    t.cur <- Bytes.create t.chunk_bytes;
    t.cur_len <- 0
  end;
  let data = t.cur in
  let same_bytes = bytes = t.prev_bytes in
  Bytes.unsafe_set data t.cur_len
    (Char.unsafe_chr ((kind land 1) lor if same_bytes then 2 else 0));
  let pos = put_varint data (t.cur_len + 1) (zigzag (addr - t.prev_addr)) in
  let pos = if same_bytes then pos else put_varint data pos bytes in
  t.cur_len <- pos;
  t.prev_addr <- addr;
  t.prev_bytes <- bytes;
  t.records <- t.records + 1

let append_buffer t buf =
  let data = buf.Trace_buffer.data in
  let n = buf.Trace_buffer.len in
  for r = 0 to n - 1 do
    let i = r * Trace_buffer.slot_width in
    append t
      ~kind:(Array.unsafe_get data i)
      ~addr:(Array.unsafe_get data (i + 1))
      ~bytes:(Array.unsafe_get data (i + 2))
  done

(* Decode [stop - start] records of one chunk, threading (prev_addr,
   prev_bytes) across calls; [f kind addr bytes] per record. *)
let decode_chunk data len ~prev_addr ~prev_bytes ~f =
  let pos = ref 0 in
  let addr = ref prev_addr and bytes = ref prev_bytes in
  while !pos < len do
    let tag = Char.code (Bytes.unsafe_get data !pos) in
    incr pos;
    let z = ref 0 and shift = ref 0 and cont = ref true in
    while !cont do
      let b = Char.code (Bytes.unsafe_get data !pos) in
      incr pos;
      z := !z lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      cont := b >= 0x80
    done;
    addr := !addr + unzigzag !z;
    if tag land 2 = 0 then begin
      let v = ref 0 and shift = ref 0 and cont = ref true in
      while !cont do
        let b = Char.code (Bytes.unsafe_get data !pos) in
        incr pos;
        v := !v lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        cont := b >= 0x80
      done;
      bytes := !v
    end;
    f (tag land 1) !addr !bytes
  done;
  (!addr, !bytes)

let iter t ~f =
  let all = List.rev ((t.cur, t.cur_len) :: t.filled) in
  ignore
    (List.fold_left
       (fun (prev_addr, prev_bytes) (data, len) ->
         decode_chunk data len ~prev_addr ~prev_bytes ~f)
       (0, 0) all)

let replay ~remap t ~translation ~cache ~counters =
  let identity = Translate.is_identity translation in
  let loads = ref 0 and stores = ref 0 in
  iter t ~f:(fun kind addr bytes ->
      let addr = remap addr in
      let addr = if identity then addr else Translate.apply translation addr in
      if kind = 0 then begin
        incr loads;
        Cache.read cache ~addr ~bytes
      end
      else begin
        incr stores;
        Cache.write cache ~addr ~bytes
      end);
  counters.Counters.loads <- counters.Counters.loads + !loads;
  counters.Counters.stores <- counters.Counters.stores + !stores
