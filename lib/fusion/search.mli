(** Search-based k-way fusion: seeded simulated annealing with restarts
    and a closing descent, and an exact set-partition DP as the
    optimality oracle for small instances.  Both are measured against
    the default pipeline's fuse stage, {!Bw_transform.Fuse.greedy}.

    The paper proves bandwidth-minimal fusion NP-complete and stops at
    the two-partition min-cut ({!Bandwidth_minimal}); this module
    searches the full space of legal k-way partitions instead.  A
    candidate plan is an [int list list] as in {!Cost}: blocks of
    top-level statement positions (ascending) in execution order.

    {b Legality.}  A plan is legal when every fusion-preventing pair
    (from {!Fusion_graph}, i.e. {!Bw_analysis.Depend.fusable} failures
    and non-loop statements) is separated, the dependence graph
    contracted onto the blocks is acyclic, and every block survives the
    pairwise fold of {!Bw_transform.Fuse.apply_plan}.

    {b Objective.}  Candidates are priced in predicted bytes with the
    analytic tier ({!Cost.predicted_traffic}).  Internally each block is
    priced on its own (memoized per block member-list) and the plan
    objective is the sum: for out-of-cache workloads the predictor's
    traffic is additive across top-level statements, so the additive
    objective matches whole-plan pricing while letting the annealer
    re-price only the blocks a move touches and the DP decompose over
    set partitions.  Reported traffic always comes from whole-plan
    {!Cost.predicted_traffic_memo}.

    {b Determinism:} searches are pure functions of [(config, program)].
    The annealer draws from a private [Random.State] seeded with
    [config.seed] and the restart index; nothing here reads or seeds the
    global random state (no [Random.self_init]), so equal inputs produce
    identical plans and stats (wall-clock aside) across runs and
    processes — same contract as {!Bw_workloads.Random_programs}. *)

type engine =
  | Anneal
      (** seeded randomized-restart simulated annealing, started from the
          sweep's plan, then one first-improvement descent pass *)
  | Exact  (** memoized set-partition DP, small instances only *)

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

type config = {
  engine : engine;
  machine : Bw_machine.Machine.t;  (** pricing machine model *)
  seed : int;  (** annealing RNG seed; unused by Exact *)
  restarts : int;  (** annealing restarts (even: from the sweep, odd: unfused) *)
  steps : int;  (** annealing steps per restart *)
  exact_limit : int;  (** node-count cap for {!Exact} (default 12) *)
}

(** Defaults: [Anneal] on [origin2000], [seed 1], 2 restarts of 1300
    steps, [exact_limit 12]. *)
val default_config :
  ?engine:engine -> ?machine:Bw_machine.Machine.t -> ?seed:int -> unit -> config

type stats = {
  engine : engine;
  nodes : int;  (** top-level statements = fusion-graph nodes *)
  candidates : int;
      (** legal candidates priced by this search: annealing and descent
          moves, or the DP's blocks *)
  cache_hits : int;  (** block-memo + plan-memo hits *)
  plan : int list list;  (** the winning plan *)
  greedy_plan : int list list;
      (** the baseline: {!Bw_transform.Fuse.greedy}'s sweep as a plan,
          i.e. what the default pipeline's fuse stage does *)
  objective : float;  (** additive block objective of [plan], bytes *)
  greedy_objective : float;  (** same objective on [greedy_plan] *)
  traffic : float;  (** whole-plan predicted traffic of [plan], bytes *)
  greedy_traffic : float;
  input_traffic : float;  (** predicted traffic of the unfused input *)
  accepted : bool;  (** did {!run} commit the plan? *)
  wall_ms : float;  (** search wall-clock *)
}

(** [plan config p] searches for a fusion plan.  Always also computes
    the baseline sweep (for [greedy_*] stats): contiguous runs in
    program order, each grown while the next statement fuses, so that
    [Fuse.apply_plan p greedy_plan] is [Fuse.greedy p].  Runs under a
    ["fusion.search"] span; candidate counts and memo hits are
    published as [fusion.search.candidates] / [fusion.search.cache_hit]
    in {!Bw_obs.Metrics}.  Errors on an empty program, an [Exact]
    request beyond [exact_limit], or an internally invalid plan (a
    bug). *)
val plan :
  config -> Bw_ir.Ast.program -> (int list list * stats, string) result

(** [run config p] is {!plan} plus commitment: the winning plan is
    applied with {!Bw_transform.Fuse.apply_plan} and kept only when the
    predictor prices it no worse than the input {e and} the
    dependence-preservation lint ({!Bw_analysis.Preserve}) is clean;
    otherwise the input program is returned with [accepted = false].
    Decisions are counted under [fusion.search.accept] /
    [fusion.search.reject]. *)
val run :
  config -> Bw_ir.Ast.program -> (Bw_ir.Ast.program * stats, string) result

(** Total wrapper for pipeline wiring: {!run}'s program, or [p]
    unchanged if the search errs.  Suitable as the [fuse_search]
    argument of [Bw_transform.Strategy.run_guarded]. *)
val stage : config -> Bw_ir.Ast.program -> Bw_ir.Ast.program

(** One-line summary (engine, nodes, partitions, candidates, memo hits,
    wall-clock, predicted before/after MB). *)
val pp_stats : Format.formatter -> stats -> unit
