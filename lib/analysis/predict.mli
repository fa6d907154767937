(** Closed-form bandwidth and runtime prediction — the analytic tier.

    The predictor walks the IR once, building a per-array, per-loop
    picture of the reference pattern (trip counts, strides from
    {!Affine} subscripts, footprints), and evaluates a
    Treibig-&-Hager-style bandwidth-limited performance model against a
    machine's cache geometry: per-level line traffic, memory bytes, and
    a runtime bound as the max over the CPU rate and every hierarchy
    boundary's bandwidth.  Nothing executes, so a query's cost does not
    depend on trip counts or array sizes.  It grows with the program
    text instead: each reference group is built once, at its first
    reference, and every enclosing loop adds one slot to it as the walk
    leaves the loop; each loop body's footprint is summed once per cache
    line size, and only groups of one array are compared for a shared
    shape.  A kernel of a few references takes microseconds, a program
    of hundreds of references in deep nests well under a millisecond;
    either way fusion searches and capacity sweeps can triage thousands
    of candidates before paying for a single trace replay.

    Capacity is priced per reuse: a reuse whose distance (the loop
    body's footprint, F lines) fits a level of C lines hits, and one
    over it hits with the share an LRU cache of A ways keeps when the
    lines spread evenly over its sets — [1 - (F - C)(A + 1) / F], down
    to 0 at [F = C (1 + 1/A)], since only the [F - C] sets holding
    [A + 1] lines thrash.  On machines that place pages at random the
    sets fill unevenly, and a reuse over capacity is priced as all
    misses.

    The model is deliberately simple — evenly filled sets, so no
    conflict misses below capacity; affine reuse only; both branches of
    every [If] charged — so its answers carry an error envelope, not a
    guarantee.  The envelope measured against the exact simulator
    across the workload registry is documented in EXPERIMENTS.md;
    callers that need exactness use the higher tiers of
    {!Bw_exec.Evaluate}. *)

(** Predicted behaviour of one cache level. *)
type level = {
  capacity_bytes : int;
  line_bytes : int;
  lines_in : float;  (** lines fetched into this level *)
  lines_out : float;  (** dirty lines written back toward the next level *)
}

type t = {
  flops : float;
  loads : float;  (** array-element reads (scalars are register-resident) *)
  stores : float;
  footprint_bytes : float;  (** distinct bytes the program touches *)
  levels : level list;  (** CPU-closest first, one per machine cache *)
  memory_bytes_in : float;
  memory_bytes_out : float;
  time : Bw_machine.Timing.breakdown;
      (** {!Bw_machine.Timing.bound} of the flops, the register bytes
          and each level's lines in and out times its line size: the
          same record the exact tier's simulation gives *)
}

(** Total predicted memory-bus traffic, in + out. *)
val memory_bytes : t -> float

(** [counts p] is [(flops, loads, stores)], the fields of {!predict}'s
    answer that no machine changes, from the same walk without the
    cache levels. *)
val counts : Bw_ir.Ast.program -> float * float * float

(** [predict ~machine p] evaluates the model.  Pure and O(program size ×
    cache levels): no execution, no allocation proportional to the trip
    counts. *)
val predict : machine:Bw_machine.Machine.t -> Bw_ir.Ast.program -> t

val pp : Format.formatter -> t -> unit
