(** Compact captured memory-reference trace: capture once, replay many.

    A {!t} is an append-only record of a [(kind, addr, bytes)] stream —
    the same stream {!Trace_buffer} batches between the execution engines
    and the cache simulator — stored delta/varint-encoded in fixed-size
    chunks.  Stride-1 sweeps, the common case, cost ~2 bytes per record
    against the 24 bytes of the flat in-flight representation, so whole
    program traces stay resident while many machine models are evaluated
    against them.

    The division of labour with the rest of the pipeline:

    - the execution engine fills a store {e once} (via
      {!Bw_exec.Run.capture}, whose trace-buffer drain hook calls
      {!append_buffer});
    - {!replay} drains the recorded stream into any {!Cache.t} +
      {!Counters.t} pair, applying an address [remap] (layout
      re-basing) and a {!Translate.t} {e at replay time} — so one capture
      serves machines that differ in cache geometry, write policy, page
      translation, or array layout stagger.

    Replay preserves the exact record order of the capture, which is what
    makes replayed cache statistics bit-identical to a direct simulation
    (the property {!Bw_exec.Run} enforces in the test suite).

    Encoding, per record: one tag byte (kind, and a same-bytes flag),
    a zigzag varint of the address delta from the previous record, and —
    only when it changed — a varint of the access width.  Decoding state
    flows across chunk boundaries; records never straddle chunks. *)

type t

(** [create ()] is an empty store.  [chunk_bytes] (default 64 KB, min
    {!max_record_bytes}) sizes the encoding chunks; small values are only
    useful to stress chunk-boundary handling in tests. *)
val create : ?chunk_bytes:int -> unit -> t

(** Upper bound on the encoded size of one record; chunks are closed when
    fewer than this many bytes remain. *)
val max_record_bytes : int

(** Append one record.  [kind] is {!Trace_buffer.kind_load} or
    {!Trace_buffer.kind_store}; [addr] must be non-negative. *)
val append : t -> kind:int -> addr:int -> bytes:int -> unit

(** Append every record currently buffered (does not reset the buffer —
    usable directly as a {!Trace_buffer} drain handler's body). *)
val append_buffer : t -> Trace_buffer.t -> unit

(** Number of records appended. *)
val records : t -> int

(** Total encoded size in bytes (filled chunks plus the open one). *)
val encoded_bytes : t -> int

(** Number of chunks allocated (filled plus the open one). *)
val chunks : t -> int

(** Mean encoded bytes per record (0 when empty). *)
val bytes_per_record : t -> float

(** [iter t ~f] calls [f kind addr bytes] on every record, in append
    order, with the raw captured addresses (no remap, no translation). *)
val iter : t -> f:(int -> int -> int -> unit) -> unit

(** [replay ~remap t ~translation ~cache ~counters] feeds every record
    through [remap] (layout re-basing) then [translation] into [cache], and
    tallies loads/stores into [counters] — the same hot loop
    {!Bw_exec.Run.simulate} drains its live trace through, so the
    resulting cache statistics are bit-identical to a direct run. *)
val replay :
  remap:(int -> int) ->
  t ->
  translation:Translate.t ->
  cache:Cache.t ->
  counters:Counters.t ->
  unit
