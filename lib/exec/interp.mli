(** Checked interpreter for IR programs.

    Arrays are stored column-major (Fortran order, matching the paper's
    loop nests, where [For j / For i ... a[i,j]] is a stride-1 sweep) and
    subscripts are 1-based.  Every array access is bounds-checked.

    The interpreter reports two kinds of outcome:

    - an {!observation} — the program's observable behaviour (values
      printed plus final contents of [live_out] variables), used to verify
      that a transformed program behaves identically to the original;
    - a stream of machine events (loads, stores, flops) delivered to a
      {!sink}, used to drive the cache simulator and the counters.

    Scalars are treated as register-allocated: reading or writing one
    produces no memory event, matching the balance model's accounting
    where only array traffic reaches the memory hierarchy. *)

(** A run's failure, raised by both engines with the same message.
    [Printexc.to_string] renders it as ["runtime error: <message>"]. *)
exception Runtime_error of string

type value = V_int of int | V_float of float

type observation = {
  prints : value list;
  finals : (string * value array) list Lazy.t;
      (** final contents of each [live_out] variable, in declaration
          order; scalars are singleton arrays.  Lazy: forcing boxes a
          {!value} per element, a significant cost on large arrays that
          pure-simulation consumers never pay *)
}

(** Exact structural equality of observations. *)
val equal_observation : observation -> observation -> bool

(** Equality up to an absolute/relative tolerance on floats, for
    transformations that reassociate arithmetic. *)
val close_observation : ?tol:float -> observation -> observation -> bool

val pp_observation : Format.formatter -> observation -> unit

(** Destination of the machine-event stream.  Loads and stores are
    appended to a preallocated {!Bw_machine.Trace_buffer} with plain int
    writes — the engines pay no closure call per memory reference — and
    the buffer's [on_full] handler consumes them in batches.  Flop and
    integer-op tallies are plain mutable counters. *)
type sink = {
  trace : Bw_machine.Trace_buffer.t;
  mutable flops : int;
  mutable int_ops : int;
}

(** [make_sink ~on_trace ()] builds a sink whose trace buffer
    ({!Bw_machine.Trace_buffer.capacity} records, allocated on the minor
    heap) drains through [on_trace] (on overflow and on {!flush_sink}). *)
val make_sink :
  on_trace:(Bw_machine.Trace_buffer.t -> unit) -> unit -> sink

(** A sink that discards memory events but still tallies flops/int ops.
    Fresh per call: sinks are single-owner mutable state, so sharing one
    across concurrent runs (e.g. domains) would race. *)
val discard_sink : unit -> sink

(** Drain any events still buffered in the sink's trace.  Run after the
    engine returns — the last partial batch lives here. *)
val flush_sink : sink -> unit

(** [run ?sink ?base_of program] executes [program] (which must pass
    {!Bw_ir.Check.check}; the interpreter re-checks and raises
    [Invalid_argument] otherwise).

    [base_of] gives each array's base virtual address for event
    generation; it defaults to a packed layout.  Addresses of events are
    virtual — callers apply their own translation.

    [input_offset] starts the deterministic [read()] stream at that
    counter value instead of 0, giving differential-validation trials
    distinct (but reproducible) input sets.  Both engines honour it
    identically.

    @raise Runtime_error on out-of-bounds subscripts, non-positive steps,
    division by zero, or reading an undeclared input. *)
val run :
  ?sink:sink ->
  ?base_of:(string -> int) ->
  ?input_offset:int ->
  Bw_ir.Ast.program ->
  observation

(** The deterministic semantics shared with {!Compile}: the opaque
    intrinsic function, initial element values, and the [read()] input
    stream.  Exposed so alternative engines reproduce runs bit-exactly. *)

val intrinsic : string -> float list -> float

(** Bulk unboxed initialisation: [init_float_array init size] holds, at
    each [k], the initial value {!run} gives element [k] of a float
    array, without boxing a {!value} per element.  Shared by both
    execution engines so their storage is bit-identical. *)
val init_float_array : Bw_ir.Ast.init -> int -> float array

(** Integer counterpart of {!init_float_array}. *)
val init_int_array : Bw_ir.Ast.init -> int -> int array

(** [input_value counter dtype] is the [counter]-th [read()] value. *)
val input_value : int -> Bw_ir.Ast.dtype -> value
