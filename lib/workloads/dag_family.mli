(** Seeded operation-DAG workload family for the fusion search.

    Instances are long chains of single-statement loops in the style of
    runtime array-programming fusion (Kristensen et al., PAPERS.md):
    elementwise steps over a pool of large streamed arrays (extent [n])
    and small temporaries (extent [n/16]), plus scalar reductions onto a
    handful of shared accumulators.  Reductions sharing an accumulator
    cannot fuse (the scalar is carried between the loops), so large
    instances force many partition boundaries, and the default
    pipeline's adjacent sweep only fuses neighbours between them;
    because array footprints differ by 16x, the array-count objective of
    the paper's min-cut and the predicted-traffic (bytes) objective also
    rank those boundaries differently — the regime where greedy fusion
    and global search measurably separate.

    {b Determinism:} [generate] is a pure function of its arguments.
    The generator draws from a private [Random.State] seeded with
    [seed] (and structural parameters); it never touches the global
    random state, so equal arguments produce structurally identical
    programs across runs and processes. *)

(** [generate ~seed ~loops ~n] builds an instance with [loops] top-level
    loops over big arrays of extent [n] (small arrays use [n/16]); the
    accumulator [print]s at the end add one top-level statement each.
    @raise Invalid_argument if [loops < 1] or [n < 64]. *)
val generate : seed:int -> loops:int -> n:int -> Bw_ir.Ast.program

(** Big-array extent for a benchmark scale: 64Ki, 256Ki or 1Mi
    elements — sized so the big arrays exceed the scaled Origin L2 at
    scale 1 and the real 4 MB L2 at scale 3. *)
val extent : scale:int -> int

(** Recognise instance names of the form ["dag<seed>x<loops>"]
    (e.g. ["dag1x200"]); the returned builder sizes arrays with
    {!extent}.  [None] if the name does not match. *)
val of_name : string -> (scale:int -> Bw_ir.Ast.program) option

(** The named benchmark set used by the fuse-search experiment table:
    five instances from 60 to 200 loops. *)
val instances : scale:int -> (string * Bw_ir.Ast.program) list
