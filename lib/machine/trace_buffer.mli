(** Preallocated flat buffer of memory-reference records.

    The execution engines append one [(kind, addr, bytes)] record per
    load or store with plain unboxed [int array] writes — no closure
    call, no allocation — and a consumer drains the records in batches:
    into the cache simulator and counters ({!Bw_exec.Run.simulate}), into
    a reuse profiler, or nowhere (pure observation runs).

    The record layout is exposed ([data], [length], {!slot_width}) so
    batch consumers can walk the buffer with a tight loop instead of a
    per-record callback. *)

(** Number of [int] slots per record in {!t.data}: kind, address, bytes. *)
val slot_width : int

type t = {
  data : int array;  (** [slot_width] ints per record: kind, addr, bytes *)
  capacity : int;  (** in records *)
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

(** [create ~on_full ()] allocates a buffer of [capacity] records
    (default 1024 — 24 KB of ints, small enough to stay hot in the host
    CPU's cache while still amortising the drain call). *)
val create : ?capacity:int -> on_full:(t -> unit) -> unit -> t

(** Append a load/store record, draining first if the buffer is full. *)
val load : t -> addr:int -> bytes:int -> unit

val store : t -> addr:int -> bytes:int -> unit

val length : t -> int

(** Call [f kind addr bytes] on each buffered record, oldest first. *)
val iter : t -> f:(int -> int -> int -> unit) -> unit

(** [iter] then empty the buffer. *)
val drain : t -> f:(int -> int -> int -> unit) -> unit

(** Drain any buffered records through [on_full].  Call once at the end
    of a run; appends made after a [flush] are buffered as usual. *)
val flush : t -> unit

(** Discard buffered records without draining them. *)
val reset : t -> unit

(** Times the drain handler has run (overflow drains plus {!flush}). *)
val flushes : t -> int
