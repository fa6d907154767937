(** Drivers that regenerate every table and figure in the paper's
    evaluation, as {!Table.t} values the benchmark harness prints.

    Absolute numbers come from the simulator, so they are not the paper's
    wall-clock values; each table's notes record what shape the paper
    reports so the two can be compared (EXPERIMENTS.md does this
    systematically).

    [scale] selects problem sizes: 1 is quick (CI-sized), 2 is the
    default used for the recorded results. *)

(** The machine used to measure the Figure 1/2 program balances: the
    Origin2000's compute rate and bandwidths with proportionally scaled
    cache capacities, so that laptop-sized problems sit in the same
    "arrays much larger than cache" regime as the paper's runs. *)
val origin_scaled : Bw_machine.Machine.t

(** E1, Section 2.1: write loop vs read loop on both machine models. *)
val simple_example : ?scale:int -> unit -> Table.t

(** E2, Figure 1: program and machine balance. *)
val fig1 : ?scale:int -> unit -> Table.t

(** E3, Figure 2: ratios of bandwidth demand to supply. *)
val fig2 : ?scale:int -> unit -> Table.t

(** E4, Figure 3: effective memory bandwidth of the 13 stride-1 kernels
    on the Origin2000 and Exemplar models. *)
val fig3 : ?scale:int -> unit -> Table.t

(** E5, Figure 4: fusion objectives compared on the six-loop instance
    (no fusion / edge-weighted / bandwidth-minimal), both as graph costs
    and as simulated memory traffic of the fused programs. *)
val fig4 : ?scale:int -> unit -> Table.t

(** E6, Figure 5: behaviour of the hyper-graph min-cut algorithm —
    optimality against brute force on small random instances and runtime
    scaling on larger ones. *)
val fig5 : ?scale:int -> unit -> Table.t

(** E7, Figure 6: storage and traffic before/after shrinking & peeling. *)
val fig6 : ?scale:int -> unit -> Table.t

(** E8, Figures 7-8: store elimination timings on both machines. *)
val fig8 : ?scale:int -> unit -> Table.t

(** NAS/SP's seven subroutines over an [n^3] grid, in order —
    compute_aux, compute_rhs, txinvr, x_solve, y_solve, z_solve, add —
    each a slice of [corpus/nas_sp.bw]'s ten top-level nests (a line
    solve is two) with the whole program's declarations. *)
val sp_subroutines : n:int -> (string * Bw_ir.Ast.program) list

(** E9, Section 2.3: per-subroutine memory-bandwidth utilisation of the
    SP-like application. *)
val sp_utilisation : ?scale:int -> unit -> Table.t

(** Ablation: fusion objective quality over a random program suite. *)
val ablation_fusion : ?scale:int -> unit -> Table.t

(** Ablation: pipeline stages toggled on the Figure 6/7 programs. *)
val ablation_pipeline : ?scale:int -> unit -> Table.t

(** Ablation: sensitivity of memory balance to cache capacity. *)
val ablation_cache : ?scale:int -> unit -> Table.t

(** Fusion search: the default pipeline's greedy sweep vs the annealed
    k-way engine (and the exact DP where affordable) on the seeded DAG
    family, priced by the analytic predictor ({!Bw_fusion.Search}). *)
val fuse_search : ?scale:int -> unit -> Table.t

(** Analytic predictor vs exact simulator over the registry on the
    {!Accuracy.default_machines} (see {!Accuracy} for the envelope). *)
val predict : ?scale:int -> unit -> Table.t

(** All experiments, keyed by the ids used in DESIGN.md. *)
val all : (string * (?scale:int -> unit -> Table.t)) list
