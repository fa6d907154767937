(** Bounded, LRU-evicting, single-flight result cache — the
    content-addressed store behind the serve daemon.

    Keys are the canonical strings of {!Protocol.cache_key} (IR digest
    × machine × pipeline config × ...); values are whatever the server
    caches under them (serialised result payloads, captures).  The
    cache is safe for concurrent use from any mix of domains and
    threads.

    {b Bound}: every value has a weight, and the entries' summed weight
    never exceeds the capacity — weight 1 per value bounds the entry
    count, a value's resident bytes bound the memory it pins.  Inserting
    evicts least-recently-used entries until the new one fits; a value
    heavier than the whole capacity is returned to its caller but not
    kept.

    {b Single-flight}: concurrent {!find_or_compute} calls for the same
    key execute the computation exactly once — later callers block and
    receive the first caller's result ([`Joined]).  A computation that
    raises caches nothing and wakes the waiters, one of which retries;
    a transient failure cannot poison a key.

    Counted in {!Bw_obs.Metrics} under [<prefix>hit], [<prefix>miss],
    [<prefix>eviction] and [<prefix>join] (default prefix
    [serve.cache.]). *)

type 'a t

(** [weight] must be non-negative; it is read once, when a value is
    inserted.
    @raise Invalid_argument if [capacity < 1]. *)
val create :
  ?metric_prefix:string -> weight:('a -> int) -> capacity:int -> unit -> 'a t

(** [find_or_compute t ~key f] returns the cached value and [`Hit],
    waits out another caller's computation and returns [`Joined], or
    runs [f ()], caches it (evicting least-recently-used entries until
    it fits, or not at all when it is heavier than the capacity) and
    returns [`Miss].  Re-raises [f]'s exception. *)
val find_or_compute :
  'a t -> key:string -> (unit -> 'a) -> 'a * [ `Hit | `Miss | `Joined ]

val mem : 'a t -> string -> bool

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  single_flight_joins : int;
}

val stats : 'a t -> stats
