(** Preallocated flat buffer of memory-reference records.

    The execution engines append one [(kind, addr, bytes)] record per
    load or store with plain unboxed [int array] writes — no closure
    call, no allocation — and a consumer drains the records in batches:
    into the cache simulator and counters ({!Bw_exec.Run.simulate}), into
    a reuse profiler, or nowhere (pure observation runs).

    The record layout is exposed ([data], [len], {!slot_width}) so
    batch consumers walk the buffer with a tight loop instead of a
    per-record callback. *)

(** Number of [int] slots per record in {!t.data}: kind, address, bytes. *)
val slot_width : int

(** Records per buffer: 85, so [data] is 255 words, under OCaml's
    256-word [Max_young_wosize].  Every buffer is allocated on the minor
    heap, so the buffer of a run that ends before the next minor
    collection never reaches the major heap.  Draining every 85 records
    costs one handler call per 85 references and keeps the records
    resident in the host's L1 cache. *)
val capacity : int

type t = {
  data : int array;  (** [slot_width] ints per record: kind, addr, bytes *)
  mutable len : int;  (** records currently buffered *)
  on_full : t -> unit;
      (** drain handler, invoked when an append finds the buffer full and
          by {!flush}; the buffer is reset after it returns.  It must not
          append to the buffer it is draining. *)
  mutable flushes : int;
      (** number of times the drain handler has run, for the
          observability layer's [engine.*.trace_flushes] counters *)
}

val kind_load : int
val kind_store : int

(** [create ~on_full ()] allocates an empty buffer of {!capacity}
    records. *)
val create : on_full:(t -> unit) -> unit -> t

(** Append a load/store record, draining first if the buffer is full. *)
val load : t -> addr:int -> bytes:int -> unit

val store : t -> addr:int -> bytes:int -> unit

(** Drain any buffered records through [on_full].  Call once at the end
    of a run; appends made after a [flush] are buffered as usual. *)
val flush : t -> unit

(** Times the drain handler has run (overflow drains plus {!flush}). *)
val flushes : t -> int
