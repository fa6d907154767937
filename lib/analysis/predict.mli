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

(** {1 Trip-count estimation}

    Shared with {!Bw_transform.Ir_stats}: an interval environment for
    loop indices lets symbolic bounds introduced by tiling
    ([lo = Scalar tile_origin; hi = min (tile_origin + t - 1) n]) be
    estimated instead of falling back to a fixed default. *)

(** Maps loop indices to the integer interval their values span. *)
type env

val empty_env : env

(** [bind_loop env l] extends [env] with [l.index]'s value interval, when
    the bounds are estimable; otherwise returns [env] unchanged. *)
val bind_loop : env -> Bw_ir.Ast.loop -> env

(** Fallback trip count when bounds cannot be estimated at all. *)
val default_trips : int

(** [trips env l] estimates how many iterations [l] executes: exact for
    constant bounds, the interval-midpoint estimate for affine and
    min/max bounds over indices in [env] (exact for the loops {!Tile}
    introduces when the tile divides the extent), [default_trips]
    otherwise. *)
val trips : env -> Bw_ir.Ast.loop -> float

(** {1 Prediction} *)

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
  cpu_seconds : float;
  register_seconds : float;
  boundary_seconds : (string * float) list;
  seconds : float;  (** max over CPU and all bandwidth terms *)
  binding_resource : string;
}

(** Total predicted memory-bus traffic, in + out. *)
val memory_bytes : t -> float

(** [predict ~machine p] evaluates the model.  Pure and O(program size ×
    cache levels): no execution, no allocation proportional to the trip
    counts. *)
val predict : machine:Bw_machine.Machine.t -> Bw_ir.Ast.program -> t

val pp : Format.formatter -> t -> unit
