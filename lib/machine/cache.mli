(** Trace-driven multi-level cache simulator.

    Every level is set-associative with true-LRU replacement and a
    write-back, write-allocate policy — the organisation of the MIPS R10K
    and PA-8000 caches the paper measures.  A miss at level [i] fetches the
    line from level [i+1]; evicting a dirty line writes it back to level
    [i+1].  Misses and write-backs of the last level are charged to main
    memory.

    The simulator is exact, not sampled: the per-level hit/miss/write-back
    counts are what the paper reads from hardware counters, so the program
    balance computed from them is deterministic.

    {b Storage lifecycle.}  A level's slot storage (its tag/LRU table and
    dirty bytes) is sized by the modelled capacity: 32 K slots for a
    4 MB level with 128-byte lines.  {!create} draws each level's storage
    from a process-wide free list keyed by slot count, allocating only
    when the list has none of that size; each level logs the slots a run
    fills; {!retire} invalidates just those slots and returns the
    storage to the list.  Recycled storage is indistinguishable from
    fresh storage in every counter, so a run's set-up and tear-down cost
    follows the lines it fills, not the capacity it models.  The list
    only ever holds storage that was retired, so it never holds more
    than was live at once; it is guarded by a mutex, so caches may be
    created and retired from several domains.  A cache that is never
    retired simply leaves its storage to the GC. *)

type geometry = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  associativity : int;  (** ways per set; >= 1.  1 = direct-mapped *)
}

(** Raised by {!create} when a geometry is inconsistent (sizes not
    divisible, non-power-of-two line, non-positive fields). *)
exception Bad_geometry of string

type level_stats = {
  mutable reads : int;  (** read accesses arriving at this level *)
  mutable writes : int;  (** write accesses arriving at this level *)
  mutable read_misses : int;
  mutable write_misses : int;
  mutable writebacks : int;  (** dirty evictions passed to the next level *)
}

type t

(** How stores are handled, uniformly across the hierarchy. *)
type write_policy =
  | Write_back  (** write-allocate, dirty lines written back on eviction
                    (the default; what R10K and PA-8000 do) *)
  | Write_through
      (** no-write-allocate: stores update a present line and are always
          forwarded to the next level; missing stores do not fetch *)

(** [create geometries] builds a hierarchy; the first geometry is the
    level closest to the CPU. The list may be empty (every access then
    goes straight to memory).

    [fast] (default [true]) selects the optimised access path: shift/mask
    address splitting for power-of-two geometries, a per-level hot-line
    memo that short-circuits consecutive accesses to the same line, and
    an MRU-way probe ahead of the associativity scan.  [~fast:false]
    keeps the straightforward div/mod reference model.  The two are
    bit-identical in every counter (hits, misses, writebacks, memory
    lines) — the property is enforced by the test suite — so [fast]
    only trades simulation speed. *)
val create : ?write_policy:write_policy -> ?fast:bool -> geometry list -> t

val level_count : t -> int
val geometry : t -> int -> geometry

(** [read t ~addr ~bytes] simulates a CPU load of [bytes] bytes at [addr];
    accesses spanning multiple lines touch each line once.
    @raise Invalid_argument on a retired cache. *)
val read : t -> addr:int -> bytes:int -> unit

(** [write t ~addr ~bytes] simulates a CPU store (write-allocate:
    a missing line is fetched before being dirtied).
    @raise Invalid_argument on a retired cache. *)
val write : t -> addr:int -> bytes:int -> unit

(** Statistics of one level ([0] = closest to CPU).  Live view: the
    record mutates as simulation proceeds. *)
val stats : t -> int -> level_stats

(** Fresh copies of every level's statistics, CPU-closest first — safe
    to hold across further simulation (feeds the observability layer's
    [cache.L*] metrics). *)
val stats_snapshot : t -> level_stats list

(** Lines fetched from main memory (last-level read+write misses). *)
val memory_lines_in : t -> int

(** Lines written back to main memory. *)
val memory_lines_out : t -> int

(** Bytes crossing the memory bus in each direction. *)
val memory_bytes_in : t -> int

val memory_bytes_out : t -> int

(** [boundary_bytes t i] is the total traffic in bytes between level [i]
    and the next level down (or memory for the last level):
    [(read_misses + write_misses + writebacks) * line_bytes]. *)
val boundary_bytes : t -> int -> int

(** Write back every dirty line, charging the traffic to the levels
    below, level by level and in slot order within a level.  Call at
    most once, at the end of a run, when modelling programs whose
    results must reach memory.  With [fast], a level whose fill log
    holds under 1/64 of its slots is flushed by walking the sorted log,
    so a small run's flush costs what it filled, not what the level
    models; otherwise the dirty bytes are scanned.  Both visit the same
    slots in the same order.
    @raise Invalid_argument on a retired cache. *)
val flush : t -> unit

(** Reset all stats and invalidate all lines.
    @raise Invalid_argument on a retired cache. *)
val clear : t -> unit

(** [retire t] ends [t]'s simulation and returns its slot storage to
    the free list, after invalidating only the slots [t] filled.
    Afterwards {!stats}, {!stats_snapshot}, {!memory_lines_in},
    {!memory_lines_out}, {!memory_bytes_in}, {!memory_bytes_out},
    {!boundary_bytes}, {!level_count} and {!geometry} keep answering
    what they answered before, while {!read}, {!write}, {!flush} and
    {!clear} raise [Invalid_argument]: the storage may already belong
    to another cache.  Retiring a retired cache does nothing. *)
val retire : t -> unit
