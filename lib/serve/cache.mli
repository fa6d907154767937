(** Bounded, LRU-evicting, single-flight result cache — the
    content-addressed store behind the serve daemon.

    Keys are the canonical strings of {!Protocol.cache_key} (IR digest
    × machine × pipeline config × ...); values are the result payloads
    the server caches under them.  The cache is safe for concurrent use
    from any mix of domains and threads.

    {b Bound}: at most [capacity] entries; inserting into a full cache
    evicts the least-recently-used entry.

    {b Single-flight}: concurrent {!find_or_compute} calls for the same
    key execute the computation exactly once — later callers block and
    receive the first caller's result ([`Joined]).  A computation that
    raises caches nothing and wakes the waiters, one of which retries;
    a transient failure cannot poison a key.

    Counted in {!Bw_obs.Metrics} under [serve.cache.hit],
    [serve.cache.miss], [serve.cache.eviction] and [serve.cache.join]. *)

type 'a t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> 'a t

(** [find_or_compute t ~key f] returns the cached value and [`Hit],
    waits out another caller's computation and returns [`Joined], or
    runs [f ()], caches it (evicting the least-recently-used entry when
    full) and returns [`Miss].  Re-raises [f]'s exception. *)
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
