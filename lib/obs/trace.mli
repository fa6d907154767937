(** Hierarchical span tracing.

    A span is a named, timed interval with key/value attributes; spans
    nest, and the nesting depth at the moment a span begins is recorded
    so consumers can rebuild the tree without parent pointers.  Spans
    are buffered per domain (via [Domain.DLS]) and merged only at
    {!collect} time, so concurrently tracing domains never contend on a
    shared structure.

    Tracing is globally off by default.  When disabled, {!start} returns
    a shared dummy handle and {!finish} returns immediately — the cost
    of an instrumented site is one atomic load and a branch, nothing is
    allocated, and no clock is read.  That guarantee is what lets hot
    paths stay instrumented permanently (see DESIGN.md, "Observability").

    Timestamps are microseconds since the process's trace epoch, taken
    from the wall clock but monotonised per domain (a reading older than
    the previous one in the same domain is clamped), so span durations
    are never negative. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  cat : string;  (** coarse category, e.g. "pass", "simulate", "table" *)
  start_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;
  tid : int;  (** id of the domain that recorded the span *)
  depth : int;  (** nesting depth within that domain when the span began *)
  attrs : (string * value) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [with_enabled b f] runs [f] with tracing set to [b], restoring the
    previous setting afterwards (including on exceptions). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

type handle

(** [start name] opens a span.  No-op (and allocation-free) when tracing
    is disabled. *)
val start : ?cat:string -> ?attrs:(string * value) list -> string -> handle

(** Close the span and append it to the recording domain's buffer.
    Finishing twice is harmless (the second call is ignored). *)
val finish : ?attrs:(string * value) list -> handle -> unit

(** [with_span name f] wraps [f] in a span; [result_attrs] computes
    attributes from [f]'s result once it returns.  If [f] raises, the
    span is finished with an ["error"] attribute and the exception is
    re-raised. *)
val with_span :
  ?cat:string ->
  ?attrs:(string * value) list ->
  ?result_attrs:('a -> (string * value) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** Merge every domain's buffered spans, sorted by start time.  Call
    after worker domains have been joined: a domain still recording
    concurrently may contribute a torn prefix. *)
val collect : unit -> span list

(** Discard all buffered spans (the enabled flag is untouched). *)
val reset : unit -> unit

(** Current trace clock, for consumers that want to timestamp their own
    events on the spans' axis. *)
val now_us : unit -> float
