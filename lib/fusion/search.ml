type engine = Anneal | Exact

let engine_to_string = function Anneal -> "anneal" | Exact -> "exact"

let engine_of_string = function
  | "anneal" -> Some Anneal
  | "exact" -> Some Exact
  | _ -> None

type config = {
  engine : engine;
  machine : Bw_machine.Machine.t;
  seed : int;
  restarts : int;
  steps : int;
  exact_limit : int;
}

let default_config ?(engine = Anneal)
    ?(machine = Bw_machine.Machine.origin2000) ?(seed = 1) () =
  { engine; machine; seed; restarts = 2; steps = 1300; exact_limit = 12 }

type stats = {
  engine : engine;
  nodes : int;
  candidates : int;
  cache_hits : int;
  plan : int list list;
  greedy_plan : int list list;
  objective : float;
  greedy_objective : float;
  traffic : float;
  greedy_traffic : float;
  input_traffic : float;
  accepted : bool;
  wall_ms : float;
}

let candidates_counter = Bw_obs.Metrics.counter "fusion.search.candidates"
let accept_counter = Bw_obs.Metrics.counter "fusion.search.accept"
let reject_counter = Bw_obs.Metrics.counter "fusion.search.reject"
let cache_hit_counter = Bw_obs.Metrics.counter "fusion.search.cache_hit"

(* ------------------------------------------------------------------ *)
(* Search context: the fusion graph plus the pricing memo tables.     *)

type ctx = {
  g : Fusion_graph.t;
  p : Bw_ir.Ast.program;
  machine : Bw_machine.Machine.t;
  stmts : Bw_ir.Ast.stmt array;
  n : int;
  prevent : bool array array;
  succ_of : int list array;  (** dependence successors per node *)
  (* Per-block analytic price, keyed on the block's member list.  [None]
     marks a block the fold fusion cannot build (infeasible).  Blocks
     recur across candidate plans far more than whole plans do, so this
     table carries most of the memoisation weight. *)
  block_memo : (string, float option) Hashtbl.t;
  plan_memo : Cost.memo;
  mutable candidates : int;
  mutable block_hits : int;
  sharers : int array array;  (** nodes sharing >=1 array, per node *)
}

(* Statements whose relative order is observable even without a data
   dependence: prints append to the output trace, reads consume the
   input stream.  The dependence graph alone would let the search
   reorder two prints of unrelated values, which changes the observation
   the validators compare, so we chain them explicitly. *)
let rec observable (s : Bw_ir.Ast.stmt) =
  match s with
  | Bw_ir.Ast.Print _ | Bw_ir.Ast.Read_input _ -> true
  | Bw_ir.Ast.Assign _ -> false
  | Bw_ir.Ast.For l -> List.exists observable l.Bw_ir.Ast.body
  | Bw_ir.Ast.If (_, t, e) -> List.exists observable t || List.exists observable e

let make_ctx ~machine p =
  let g = Fusion_graph.build p in
  let n = Fusion_graph.node_count g in
  let prevent = Array.make_matrix n n false in
  List.iter
    (fun (u, v) ->
      prevent.(u).(v) <- true;
      prevent.(v).(u) <- true)
    g.Fusion_graph.preventing;
  let succ_of =
    Array.init n (fun v -> Bw_graph.Digraph.succ g.Fusion_graph.deps v)
  in
  (* chain observable statements in program order *)
  let _ =
    List.fold_left
      (fun prev (v, s) ->
        if not (observable s) then prev
        else begin
          (match prev with
          | Some u when not (List.mem v succ_of.(u)) ->
            succ_of.(u) <- v :: succ_of.(u)
          | _ -> ());
          Some v
        end)
      None
      (List.mapi (fun v s -> (v, s)) p.Bw_ir.Ast.body)
  in
  let sharers =
    let by_array = Hashtbl.create 32 in
    Array.iteri
      (fun v node ->
        List.iter
          (fun a ->
            Hashtbl.replace by_array a
              (v :: Option.value (Hashtbl.find_opt by_array a) ~default:[]))
          node.Fusion_graph.arrays)
      g.Fusion_graph.nodes;
    let sets = Array.make n [] in
    Hashtbl.iter
      (fun _ vs ->
        List.iter
          (fun v ->
            sets.(v) <- List.filter (fun w -> w <> v) vs @ sets.(v))
          vs)
      by_array;
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) sets
  in
  { g;
    p;
    machine;
    stmts = Array.of_list p.Bw_ir.Ast.body;
    n;
    prevent;
    succ_of;
    block_memo = Hashtbl.create 512;
    plan_memo = Cost.memo ();
    candidates = 0;
    block_hits = 0;
    sharers }

let block_key members = String.concat "." (List.map string_of_int members)

(* Price one block: the analytic predicted traffic of a mini-program
   holding only the block's statements, fused into a single partition.
   The predictor's cross-statement reuse is only free when a scope fits
   in cache, so for out-of-cache workloads the whole-plan traffic is the
   sum of its block prices — which is what makes an additive objective
   (and therefore incremental re-pricing and a set-partition DP) sound. *)
let block_cost ctx members =
  let key = block_key members in
  match Hashtbl.find_opt ctx.block_memo key with
  | Some c ->
    ctx.block_hits <- ctx.block_hits + 1;
    Bw_obs.Metrics.incr cache_hit_counter;
    c
  | None ->
    let body = List.map (fun v -> ctx.stmts.(v)) members in
    let mini = { ctx.p with Bw_ir.Ast.body } in
    let plan = [ List.init (List.length members) (fun i -> i) ] in
    let c =
      match Cost.predicted_traffic ~machine:ctx.machine mini plan with
      | Ok t -> Some t
      | Error _ -> None
    in
    Hashtbl.add ctx.block_memo key c;
    c

(* Additive objective of a candidate plan; [None] if any block is
   infeasible.  Block order does not matter, so move evaluation only
   re-prices the touched blocks (via the memo). *)
let objective ctx partitions =
  ctx.candidates <- ctx.candidates + 1;
  List.fold_left
    (fun acc members ->
      match (acc, block_cost ctx members) with
      | Some total, Some c -> Some (total +. c)
      | _ -> None)
    (Some 0.0) partitions

let has_preventing ctx members =
  let rec pairs = function
    | [] -> false
    | u :: rest -> List.exists (fun v -> ctx.prevent.(u).(v)) rest || pairs rest
  in
  pairs members

(* Contract the dependence graph onto the given blocks and topologically
   order them; [None] when the contraction has a cycle.  The result is
   the execution order {!Cost.validate} accepts. *)
let topo_order ctx blocks =
  let blocks = Array.of_list blocks in
  let k = Array.length blocks in
  let block_of = Array.make ctx.n (-1) in
  Array.iteri
    (fun bi members -> List.iter (fun v -> block_of.(v) <- bi) members)
    blocks;
  let bg = Bw_graph.Digraph.create ~size_hint:k () in
  Bw_graph.Digraph.ensure_nodes bg k;
  Array.iteri
    (fun bi members ->
      List.iter
        (fun u ->
          List.iter
            (fun w ->
              if block_of.(w) <> bi then
                Bw_graph.Digraph.add_edge bg bi block_of.(w))
            ctx.succ_of.(u))
        members)
    blocks;
  match Bw_graph.Topo.sort bg with
  | None -> None
  | Some order -> Some (List.map (fun bi -> blocks.(bi)) order)

(* ------------------------------------------------------------------ *)
(* The default pipeline's sweep, as a plan                            *)

(* {!Bw_transform.Fuse.greedy} written as a plan: contiguous runs in
   program order, each grown while the next statement is not
   fusion-preventing with any member and the fold still fuses the run.
   Runs in program order need no reordering, so the plan is legal as it
   stands. *)
let sweep_plan ctx =
  (* [run] is the open run, last member first *)
  let rec grow run v plan =
    if v = ctx.n then List.rev (List.rev run :: plan)
    else if
      (not (List.exists (fun u -> ctx.prevent.(u).(v)) run))
      && Option.is_some (block_cost ctx (List.rev (v :: run)))
    then grow (v :: run) (v + 1) plan
    else grow [ v ] (v + 1) (List.rev run :: plan)
  in
  grow [ 0 ] 1 []

(* ------------------------------------------------------------------ *)
(* Randomized-restart simulated annealing                             *)

(* State: an assignment node -> block id.  Moves rebuild only the
   touched blocks; pricing goes through the block memo. *)

let blocks_of_assignment asg n =
  let tbl = Hashtbl.create 32 in
  for v = n - 1 downto 0 do
    let b = asg.(v) in
    Hashtbl.replace tbl b (v :: (Option.value (Hashtbl.find_opt tbl b) ~default:[]))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []
  |> List.sort compare

let assignment_of_plan plan n =
  let asg = Array.make n (-1) in
  List.iteri (fun bi members -> List.iter (fun v -> asg.(v) <- bi) members) plan;
  asg

(* objective of the blocks containing exactly the given block ids *)
let cost_of_ids ctx asg ids =
  let members_of b =
    let rec collect v acc =
      if v < 0 then acc
      else collect (v - 1) (if asg.(v) = b then v :: acc else acc)
    in
    collect (ctx.n - 1) []
  in
  List.fold_left
    (fun acc b ->
      match acc with
      | None -> None
      | Some total -> (
        match members_of b with
        | [] -> acc
        | members ->
          if has_preventing ctx members then None
          else
            (match block_cost ctx members with
            | None -> None
            | Some c -> Some (total +. c))))
    (Some 0.0) (List.sort_uniq compare ids)

(* Is the dependence graph contracted onto the blocks of [asg] acyclic?
   Kahn's algorithm over arrays.  Block ids are arbitrary ints (fresh
   blocks keep incrementing), so they are numbered densely first. *)
let acyclic ctx asg =
  let dense = Array.make (Array.fold_left Int.max 0 asg + 1) (-1) in
  let k = ref 0 in
  Array.iter
    (fun b ->
      if dense.(b) < 0 then begin
        dense.(b) <- !k;
        incr k
      end)
    asg;
  let indegree = Array.make !k 0 and succ = Array.make !k [] in
  for u = 0 to ctx.n - 1 do
    let bu = dense.(asg.(u)) in
    List.iter
      (fun w ->
        let bw = dense.(asg.(w)) in
        if bu <> bw then begin
          succ.(bu) <- bw :: succ.(bu);
          indegree.(bw) <- indegree.(bw) + 1
        end)
      ctx.succ_of.(u)
  done;
  let ready = ref [] in
  Array.iteri (fun b d -> if d = 0 then ready := b :: !ready) indegree;
  let removed = ref 0 in
  while !ready <> [] do
    let b = List.hd !ready in
    ready := List.tl !ready;
    incr removed;
    List.iter
      (fun c ->
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then ready := c :: !ready)
      succ.(b)
  done;
  !removed = !k

(* Apply the move [apply], which touches the blocks [ids], when the
   result is legal (no preventing pair inside a touched block, every
   touched block fuses, the contraction is acyclic) and [keep] takes the
   touched blocks' objective before and after it; otherwise leave [asg]
   as it was.  Every legal move is a priced candidate. *)
let try_move ctx asg ids apply ~keep =
  match cost_of_ids ctx asg ids with
  | None -> None (* current state must be legal; just skip *)
  | Some before ->
    let saved = Array.copy asg in
    apply ();
    let kept =
      (* the cheap check first: a cyclic move prices no block *)
      if not (acyclic ctx asg) then None
      else
        match cost_of_ids ctx asg ids with
        | Some after ->
          ctx.candidates <- ctx.candidates + 1;
          if keep before after then Some (before, after) else None
        | None -> None
    in
    if Option.is_none kept then Array.blit saved 0 asg 0 ctx.n;
    kept

(* One first-improvement pass over the nodes in order: move each to the
   first of its sharers' blocks, or else to a fresh block, that lowers
   the objective.  Annealing's best plan is rarely a local optimum:
   2x1300 steps over 200 nodes propose a targeted move per node only a
   few times. *)
let descend ctx plan =
  let asg = assignment_of_plan plan ctx.n in
  let next_id = ref (List.length plan) in
  let improved = ref false in
  let lowers before after = after < before -. 1e-9 in
  for v = 0 to ctx.n - 1 do
    let sharer_blocks =
      Array.fold_left
        (fun acc w ->
          let b = asg.(w) in
          if b = asg.(v) || List.mem b acc then acc else b :: acc)
        [] ctx.sharers.(v)
    in
    let fresh = !next_id in
    incr next_id;
    let rec first = function
      | [] -> ()
      | target :: rest -> (
        match
          try_move ctx asg [ asg.(v); target ]
            (fun () -> asg.(v) <- target)
            ~keep:lowers
        with
        | Some _ -> improved := true
        | None -> first rest)
    in
    first (List.rev (fresh :: sharer_blocks))
  done;
  if not !improved then plan
  else
    match topo_order ctx (blocks_of_assignment asg ctx.n) with
    | Some plan' -> plan'
    | None -> plan

let anneal ctx cfg start =
  let best = ref start in
  let best_cost =
    ref (Option.value (objective ctx start) ~default:infinity)
  in
  (* temperature is relative to the average block price of the start
     state, so "one small array's worth" of regression is acceptable
     early and nothing is acceptable late *)
  let t0 = 1.0 and t_end = 0.01 in
  let run_restart r init_plan =
    let rng = Random.State.make [| cfg.seed; r; 0x5ea7c4 |] in
    let asg = assignment_of_plan init_plan ctx.n in
    let next_id = ref (List.length init_plan) in
    let cur = ref (Option.value (objective ctx init_plan) ~default:infinity) in
    let scale =
      if Float.is_finite !cur && !cur > 0.0 then
        !cur /. float_of_int (List.length init_plan)
      else 1.0
    in
    for step = 0 to cfg.steps - 1 do
      let temp =
        t0 *. ((t_end /. t0) ** (float_of_int step /. float_of_int cfg.steps))
      in
      (* proposal kinds: a targeted merge walks a hyper-edge (merge the
         blocks of two loops sharing an array — the move that actually
         removes traffic), a random merge keeps the chain irreducible,
         and a node move/split (move to a fresh block) undoes bad
         agglomeration.  Weights 5:2:5. *)
      let merge_of u w =
        let bu = asg.(u) and bw = asg.(w) in
        if bu = bw then ([], fun () -> ())
        else
          ( [ bu; bw ],
            fun () ->
              for v = 0 to ctx.n - 1 do
                if asg.(v) = bw then asg.(v) <- bu
              done )
      in
      let move_to u target =
        if target = asg.(u) then ([], fun () -> ())
        else ([ asg.(u); target ], fun () -> asg.(u) <- target)
      in
      let random_sharer u =
        let sh = ctx.sharers.(u) in
        if Array.length sh = 0 then None
        else Some sh.(Random.State.int rng (Array.length sh))
      in
      let touched, apply =
        match Random.State.int rng 12 with
        | 0 | 1 | 2 -> (
          (* targeted merge along a shared array *)
          let u = Random.State.int rng ctx.n in
          match random_sharer u with
          | None -> ([], fun () -> ())
          | Some w -> merge_of u w)
        | 3 ->
          let u = Random.State.int rng ctx.n
          and w = Random.State.int rng ctx.n in
          merge_of u w
        | 4 | 5 | 6 | 7 -> (
          (* targeted node move: chase a shared array into its block —
             the move that escapes the sweep's contiguous fragmentation,
             where whole-block merges are vetoed by the preventing
             reductions both blocks contain *)
          let u = Random.State.int rng ctx.n in
          match random_sharer u with
          | None -> ([], fun () -> ())
          | Some w -> move_to u asg.(w))
        | _ ->
          let u = Random.State.int rng ctx.n in
          if Random.State.bool rng then begin
            (* fresh block: splits u out of its current block *)
            incr next_id;
            move_to u !next_id
          end
          else move_to u asg.(Random.State.int rng ctx.n)
      in
      let keep before after =
        let delta = (after -. before) /. scale in
        delta <= 0.0 || Random.State.float rng 1.0 < exp (-.delta /. temp)
      in
      if touched <> [] then
        match try_move ctx asg touched apply ~keep with
        | None -> ()
        | Some (before, after) ->
          cur := !cur -. before +. after;
          if !cur < !best_cost -. 1e-9 then begin
            match topo_order ctx (blocks_of_assignment asg ctx.n) with
            | Some plan ->
              best := plan;
              best_cost := !cur
            | None -> ()
          end
    done
  in
  let unfused = List.init ctx.n (fun v -> [ v ]) in
  for r = 0 to cfg.restarts - 1 do
    run_restart r (if r mod 2 = 0 then start else unfused)
  done;
  descend ctx !best

(* ------------------------------------------------------------------ *)
(* Exact set-partition DP (optimality oracle)                         *)

(* f(S) = cheapest partitioning of the node set S into an execution
   suffix: peel the last block B (legal, no dependence leaving B into
   S \ B), pay its price, recurse on S \ B.  Memoized on the bitmask;
   every ordered legal plan can be peeled this way, so the DP is exact
   for the additive objective. *)
let exact ctx cfg =
  if ctx.n > cfg.exact_limit then
    Error
      (Printf.sprintf "exact engine: %d nodes exceeds the limit of %d"
         ctx.n cfg.exact_limit)
  else begin
    let n = ctx.n in
    let full = (1 lsl n) - 1 in
    let prevent_mask = Array.make n 0 in
    let succ_mask = Array.make n 0 in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        if ctx.prevent.(v).(w) then
          prevent_mask.(v) <- prevent_mask.(v) lor (1 lsl w)
      done;
      List.iter
        (fun w -> succ_mask.(v) <- succ_mask.(v) lor (1 lsl w))
        ctx.succ_of.(v)
    done;
    let members_of mask =
      let rec go v acc =
        if v < 0 then acc
        else go (v - 1) (if mask land (1 lsl v) <> 0 then v :: acc else acc)
      in
      go (n - 1) []
    in
    let memo : (int, (float * int) option) Hashtbl.t = Hashtbl.create 1024 in
    (* price of the best partitioning of [mask]; the int is the best
       last block *)
    let rec solve mask =
      if mask = 0 then Some (0.0, 0)
      else
        match Hashtbl.find_opt memo mask with
        | Some r -> r
        | None ->
          let best = ref None in
          (* enumerate non-empty submasks of mask as candidate last blocks *)
          let b = ref mask in
          while !b <> 0 do
            let block = !b in
            let rest = mask land lnot block in
            let legal =
              let rec check m =
                if m = 0 then true
                else begin
                  let v = m land -m in
                  let vi =
                    (* log2 of the lowest set bit *)
                    let rec lg i x = if x = 1 then i else lg (i + 1) (x lsr 1) in
                    lg 0 v
                  in
                  prevent_mask.(vi) land block = 0
                  && succ_mask.(vi) land rest = 0
                  && check (m land (m - 1))
                end
              in
              check block
            in
            (if legal then
               match block_cost ctx (members_of block) with
               | None -> ()
               | Some c -> (
                 ctx.candidates <- ctx.candidates + 1;
                 match solve rest with
                 | None -> ()
                 | Some (crest, _) -> (
                   let total = c +. crest in
                   match !best with
                   | Some (bc, _) when bc <= total -> ()
                   | _ -> best := Some (total, block))));
            b := (!b - 1) land mask
          done;
          Hashtbl.add memo mask !best;
          !best
    in
    match solve full with
    | None -> Error "exact engine: no legal partitioning"
    | Some _ ->
      (* reconstruct by peeling best last blocks *)
      let rec rebuild mask acc =
        if mask = 0 then acc
        else
          match Hashtbl.find_opt memo mask with
          | Some (Some (_, block)) ->
            rebuild (mask land lnot block) (members_of block :: acc)
          | _ -> acc
      in
      Ok (rebuild full [])
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)

let full_traffic ctx plan =
  match Cost.predicted_traffic_memo ~machine:ctx.machine ~memo:ctx.plan_memo
          ctx.p plan
  with
  | Ok t -> t
  | Error _ -> infinity

let plan (cfg : config) (p : Bw_ir.Ast.program) =
  if p.Bw_ir.Ast.body = [] then Error "empty program"
  else begin
    let started = Bw_obs.Trace.now_us () in
    let ctx = make_ctx ~machine:cfg.machine p in
    Bw_obs.Trace.with_span ~cat:"fusion"
      ~attrs:
        [ ("engine", Bw_obs.Trace.Str (engine_to_string cfg.engine));
          ("nodes", Bw_obs.Trace.Int ctx.n);
          ("seed", Bw_obs.Trace.Int cfg.seed) ]
      ~result_attrs:(fun r ->
        match r with
        | Error _ -> [ ("error", Bw_obs.Trace.Str "search failed") ]
        | Ok (_, st) ->
          [ ("partitions", Bw_obs.Trace.Int (List.length st.plan));
            ("candidates", Bw_obs.Trace.Int st.candidates);
            ("cache_hits", Bw_obs.Trace.Int st.cache_hits) ])
      "fusion.search"
    @@ fun () ->
    let greedy = sweep_plan ctx in
    let chosen =
      match cfg.engine with
      | Anneal -> Ok (anneal ctx cfg greedy)
      | Exact -> exact ctx cfg
    in
    match chosen with
    | Error _ as e -> e
    | Ok best -> (
      match Cost.validate ctx.g best with
      | Error reason -> Error ("search produced an invalid plan: " ^ reason)
      | Ok () ->
        let obj plan' = Option.value (objective ctx plan') ~default:infinity in
        let unfused_plan = List.init ctx.n (fun v -> [ v ]) in
        let traffic = full_traffic ctx best in
        let greedy_traffic = full_traffic ctx greedy in
        let input_traffic = full_traffic ctx unfused_plan in
        Bw_obs.Metrics.incr ~by:ctx.candidates candidates_counter;
        let stats =
          { engine = cfg.engine;
            nodes = ctx.n;
            candidates = ctx.candidates;
            cache_hits = ctx.block_hits + Cost.memo_hits ctx.plan_memo;
            plan = best;
            greedy_plan = greedy;
            objective = obj best;
            greedy_objective = obj greedy;
            traffic;
            greedy_traffic;
            input_traffic;
            accepted = false;
            wall_ms = (Bw_obs.Trace.now_us () -. started) /. 1e3 }
        in
        Ok (best, stats))
  end

let run (cfg : config) (p : Bw_ir.Ast.program) =
  match plan cfg p with
  | Error _ as e -> e
  | Ok (best, stats) ->
    (* commit only a predicted win; the caller's Guard re-checks, this
       keeps a declined search a visible no-op *)
    if stats.traffic > stats.input_traffic then begin
      Bw_obs.Metrics.incr reject_counter;
      Ok (p, { stats with accepted = false })
    end
    else begin
      match Bw_transform.Fuse.apply_plan p best with
      | Error _ as e -> e
      | Ok fused ->
        if
          Result.is_ok (Bw_ir.Check.check fused)
          && Bw_analysis.Preserve.lint_ok ~before:p ~after:fused
        then begin
          Bw_obs.Metrics.incr accept_counter;
          Ok (fused, { stats with accepted = true })
        end
        else begin
          Bw_obs.Metrics.incr reject_counter;
          Ok (p, { stats with accepted = false })
        end
    end

let stage (cfg : config) (p : Bw_ir.Ast.program) =
  match run cfg p with Ok (p', _) -> p' | Error _ -> p

let pp_stats ppf st =
  Format.fprintf ppf
    "fuse-search(%s): %d nodes -> %d partitions, %d candidates (%d cached), \
     %.1f ms, predicted %.2f MB -> %.2f MB"
    (engine_to_string st.engine) st.nodes (List.length st.plan) st.candidates
    st.cache_hits st.wall_ms (st.input_traffic /. 1e6) (st.traffic /. 1e6)
