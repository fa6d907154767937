(** Work-stealing domain pool for embarrassingly parallel maps.

    Extracted from the bench harness so both table generation
    ({!Bw_core.Harness}) and multi-machine trace replay
    ({!Run.replay_many}) fan out over the same machinery: domains
    claim the next unclaimed index from an atomic counter — so one slow
    item does not serialise the rest — and results come back in input
    order, making a parallel map's output indistinguishable from a
    serial one.

    The pool is crash-tolerant in the way the harness needs: a worker
    domain that dies (asynchronous exception, injected fault) leaves its
    claimed-but-unfinished slots to be recomputed on the calling domain
    after the joins, via [retry]. *)

(** [map f items] computes [Array.map f items] across domains.

    [jobs] caps the worker domains (default
    [Domain.recommended_domain_count ()], capped at the item count);
    [jobs <= 1] or fewer than two items runs serially on the calling
    domain with no spawns, no [on_claim] and no [retry].

    [on_claim i] runs on the worker immediately after it claims index
    [i], before [f] — the harness hangs its worker-death fault site
    here.

    [retry i x] recomputes a slot a dead worker claimed but never
    finished (default: [f x] again, on the calling domain).  Exceptions
    from [retry] — and from [f] when running serially — propagate to the
    caller; an exception from [f] on a spawned worker kills only that
    worker, and the slot is retried.

    [f] must be safe to run concurrently with itself on other domains
    (share nothing mutable, or share only atomics). *)
val map :
  ?jobs:int ->
  ?on_claim:(int -> unit) ->
  ?retry:(int -> 'a -> 'b) ->
  ('a -> 'b) ->
  'a array ->
  'b array

(** The worker count [map] uses when [?jobs] is omitted. *)
val default_jobs : unit -> int

(** {1 Persistent task pool}

    [map] spawns domains per call, which is right for batch fan-outs
    but wrong for a long-running service: the serve daemon
    ({!Bw_serve.Server}) keeps one pool alive for its whole lifetime
    and feeds it one task per request.  Worker domains block on a
    condition variable when idle (no spinning), tasks run in FIFO
    order, and completion is delivered through a future the submitter
    awaits — from any domain {e or} systhread, which is how the
    daemon's per-connection threads hand work to compute domains.

    Workers are {e supervised}: a worker domain that dies outside the
    per-task exception confinement (an injected [pool.worker.crash]
    fault, an asynchronous exception) fails only the task it had in
    flight — its future settles with {!Worker_crashed} — and a
    replacement domain is spawned immediately, so a crash degrades one
    request instead of permanently shrinking the pool.  Respawns are
    counted on the [pool.worker.respawns] metric. *)

type t

(** A handle to a submitted task's eventual result. *)
type 'a future

(** The error a future settles with when the worker domain executing it
    died mid-task; the payload is a one-line rendering of the killing
    exception.  Callers that retry should treat it as transient — the
    pool has already been healed. *)
exception Worker_crashed of string

(** [create ?jobs ()] spawns [jobs] worker domains (default
    [default_jobs () - 1], at least 1 — the submitting thread is
    typically doing I/O, not compute). *)
val create : ?jobs:int -> unit -> t

(** Worker domains of this pool. *)
val jobs : t -> int

(** Tasks currently queued (claimed-but-running tasks not included). *)
val pending : t -> int

(** Enqueue [f]; it runs on the first free worker.  An exception from
    [f] is captured into the future, never kills the worker.
    @raise Invalid_argument after {!shutdown}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** Block until the task finishes; safe from any domain or thread, and
    from several waiters at once. *)
val await : 'a future -> ('a, exn) result

(** {!await}, re-raising the task's exception. *)
val await_exn : 'a future -> 'a

(** [run pool f] = [await_exn (submit pool f)]. *)
val run : t -> (unit -> 'a) -> 'a

(** Drain: workers finish every already-queued task, then exit; joins
    them all.  Further {!submit}s raise. *)
val shutdown : t -> unit
