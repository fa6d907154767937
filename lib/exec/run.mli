(** End-to-end simulation of an IR program on a machine model: lay out the
    arrays, interpret the program streaming its memory events through the
    machine's address translation into its cache hierarchy, and evaluate
    the timing model. *)

type result = {
  machine : Bw_machine.Machine.t;
  observation : Interp.observation;
  counters : Bw_machine.Counters.t;
  cache : Bw_machine.Cache.t;
      (** retired ({!Bw_machine.Cache.retire}): its statistics stay
          readable, its slot storage serves the next run *)
  breakdown : Bw_machine.Timing.breakdown;
}

(** [simulate ~machine program] runs the full pipeline.  Dirty cache
    lines are written back at the end of the run, before the timing
    model is evaluated, charging the program for results that must
    reach memory.

    [engine] picks the executor: the closure {!Compile}r (default; same
    semantics, several times faster) or the tree-walking {!Interp}reter.
    The test suite keeps them bit-identical.  This is the one-machine
    case of {!simulate_many}. *)
val simulate :
  ?engine:[ `Compiled | `Interpreted ] ->
  machine:Bw_machine.Machine.t ->
  Bw_ir.Ast.program ->
  result

(** [simulate_many ~machines program] executes [program] {e once} and
    streams its memory references into every machine: each trace buffer
    drains into each machine's translation and cache in turn, so no
    trace is stored and no domain is spawned.  When every machine lays
    the arrays out alike (always, for one machine) the engine writes
    that layout's addresses; otherwise it writes the canonical addresses
    of {!capture} and each machine re-bases them as {!replay} does.
    Results are in [machines] order, each bit-identical to
    [simulate ~machine]; engine metrics are published once per run. *)
val simulate_many :
  ?engine:[ `Compiled | `Interpreted ] ->
  machines:Bw_machine.Machine.t list ->
  Bw_ir.Ast.program ->
  result list

(** A captured execution: the program's full memory-reference stream,
    delta/varint-encoded in a {!Bw_machine.Trace_store}, plus everything
    machine-independent the simulation pipeline needs (observation,
    flop/int-op tallies, array sizes).  Capturing runs the execution
    engine {e once}; each {!replay} then evaluates the stream against
    one machine model without re-executing the program.

    Captured addresses live in a canonical space — array [i] at base
    [(i + 1) lsl shift] — so replay re-bases them onto the target
    machine's layout (alignment, stagger) with one shift/mask and then
    applies that machine's page translation, making one capture valid
    for machines that differ in caches, write policy, translation and
    layout alike. *)
type capture = {
  captured_program : Bw_ir.Ast.program;
  captured_engine : [ `Compiled | `Interpreted ];
  captured_observation : Interp.observation;
  captured_flops : int;
  captured_int_ops : int;
  arrays : (string * int) list;  (** (name, bytes), declaration order *)
  shift : int;  (** canonical base shift: array [i] at [(i+1) lsl shift] *)
  store : Bw_machine.Trace_store.t;
}

(** Execute [program] once and capture its memory-reference stream.
    [engine] as in {!simulate} (default [`Compiled]). *)
val capture :
  ?engine:[ `Compiled | `Interpreted ] -> Bw_ir.Ast.program -> capture

(** [replay ~machine c] evaluates the captured stream on [machine]:
    fresh cache, fresh translation, same record order.  The result is
    bit-identical to [simulate ~machine] of the captured program with
    the captured engine — every counter, per-level cache statistic,
    memory line count and timing term — a property the test suite and
    the [bwc simulate --check] CI smoke enforce. *)
val replay : machine:Bw_machine.Machine.t -> capture -> result

(** [replay_many ~machines c] replays on each machine, fanning out
    across domains ({!Pool}; [jobs] caps the workers).  Results are in
    [machines] order and bit-identical to serial {!replay} calls. *)
val replay_many :
  ?jobs:int ->
  machines:Bw_machine.Machine.t list ->
  capture ->
  result list

(** Reuse-distance profile of a captured stream (loads and stores alike),
    at [granularity]-byte blocks (default 32) — one pass over the store,
    no cache model, predicting the miss count of every fully associative
    LRU capacity at once (see {!Bw_machine.Reuse}).  Canonical bases are
    at least page-aligned, so the block partition matches a packed
    layout's for any real granularity. *)
val reuse_of_capture : ?granularity:int -> capture -> Bw_machine.Reuse.t

(** Structural equality of two simulation results: machine name, all
    counters, per-level cache statistics, memory line counts, the full
    timing breakdown, and the observation.  This is the bit-identity
    oracle used by the replay tests and [bwc simulate --check]. *)
val equal_result : result -> result -> bool

(** Execute for semantics only — no machine, no cache — returning the
    observation and the CPU-side counters (flops/loads/stores).
    [engine] as in {!simulate} (default [`Compiled]). *)
val observe :
  ?engine:[ `Compiled | `Interpreted ] ->
  Bw_ir.Ast.program ->
  Interp.observation * Bw_machine.Counters.t

(** Effective memory bandwidth of the run, in bytes/second: actual
    simulated memory traffic over predicted time. *)
val effective_bandwidth : result -> float

(** The bandwidth a measurement without hardware counters reports
    (Figure 3's methodology): the program's nominal traffic — 8 bytes per
    load and 8 per store, STREAM-style — divided by
    predicted time.  Conflict misses inflate the denominator but not the
    numerator, producing the paper's 3w6r dip. *)
val nominal_bandwidth : result -> float

(** Predicted wall-clock seconds of the run. *)
val seconds : result -> float

(** Program balance: bytes per flop at each hierarchy boundary, outermost
    first, e.g. [("L1-Reg", 6.4); ("L2-L1", 5.1); ("Mem-L2", 5.2)]. *)
val program_balance : result -> (string * float) list

(** Profile the program's reuse distances at the given block granularity
    (no cache model involved; one pass over the address stream).  The
    resulting curve predicts the miss ratio of any fully associative LRU
    cache — see {!Bw_machine.Reuse}. *)
val reuse_profile :
  ?granularity:int ->
  ?engine:[ `Compiled | `Interpreted ] ->
  Bw_ir.Ast.program ->
  Bw_machine.Reuse.t
