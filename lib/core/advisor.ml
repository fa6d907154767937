type suggestion = {
  action : string;
  traffic_before : int;
  traffic_after : int;
  time_speedup : float;
  apply : Bw_ir.Ast.program;
}

type report = {
  program_name : string;
  machine_name : string;
  binding_resource : string;
  memory_demand_ratio : float;
  analytic : Bw_exec.Evaluate.t;
  suggestions : suggestion list;
}

let traffic r = Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache

(* Candidate transformations, each as (action, transformed program). *)
let candidates (p : Bw_ir.Ast.program) =
  let fusions =
    List.concat
      (List.mapi
         (fun pos stmt ->
           match (stmt, List.nth_opt p.Bw_ir.Ast.body (pos + 1)) with
           | Bw_ir.Ast.For _, Some (Bw_ir.Ast.For _) -> (
             match Bw_transform.Fuse.fuse_at p pos with
             | Ok p' ->
               [ (Printf.sprintf "fuse loops %d and %d" pos (pos + 1), p') ]
             | Error _ -> [])
           | _ -> [])
         p.Bw_ir.Ast.body)
  in
  let search_fusion =
    let cfg =
      Bw_fusion.Search.default_config ~engine:Bw_fusion.Search.Anneal ()
    in
    match Bw_fusion.Search.run cfg p with
    | Ok (p', st)
      when st.Bw_fusion.Search.accepted
           && List.length st.Bw_fusion.Search.plan
              < List.length p.Bw_ir.Ast.body ->
      [ ("annealed k-way fusion search", p') ]
    | _ -> []
  in
  let contractions =
    List.map
      (fun a ->
        let p', _ = Bw_transform.Contract.contract_arrays p in
        (Printf.sprintf "contract array '%s' to a scalar" a, p'))
      (match Bw_transform.Contract.contractable p with
      | [] -> []
      | l -> [ String.concat ", " l ])
  in
  let shrinks =
    List.filter_map
      (fun d ->
        if not (Bw_ir.Ast.is_array d) then None
        else
          match Bw_transform.Shrink.apply p d.Bw_ir.Ast.var_name with
          | Ok (p', plan) ->
            Some
              ( Printf.sprintf "shrink array '%s' to a depth-%d window"
                  d.Bw_ir.Ast.var_name plan.Bw_transform.Shrink.depth,
                p' )
          | Error _ -> None)
      p.Bw_ir.Ast.decls
  in
  let store_elims =
    let p', eliminated = Bw_transform.Store_elim.run p in
    match eliminated with
    | [] -> []
    | l ->
      [ (Printf.sprintf "eliminate write-backs to %s" (String.concat ", " l), p') ]
  in
  let regroups =
    match Bw_transform.Regroup.regroup_all p with
    | _, [] -> []
    | p', pairs ->
      [ ( "interleave "
          ^ String.concat ", "
              (List.map (fun (a, b) -> Printf.sprintf "%s/%s" a b) pairs),
          p' ) ]
  in
  let tilings =
    List.concat
      (List.mapi
         (fun pos stmt ->
           match stmt with
           | Bw_ir.Ast.For l -> (
             let indices =
               l.Bw_ir.Ast.index :: Bw_ir.Ast_util.loop_indices l.Bw_ir.Ast.body
             in
             if List.length indices < 2 then []
             else
               match
                 Bw_transform.Tile.tile_nest l
                   ~tiles:(List.map (fun i -> (i, 32)) indices)
               with
               | Ok tiled ->
                 let body =
                   List.mapi
                     (fun i s -> if i = pos then Bw_ir.Ast.For tiled else s)
                     p.Bw_ir.Ast.body
                 in
                 [ (Printf.sprintf "tile the loop nest at statement %d" pos,
                    { p with Bw_ir.Ast.body = body }) ]
               | Error _ -> [])
           | _ -> [])
         p.Bw_ir.Ast.body)
  in
  let full_pipeline =
    let p', _ = Bw_transform.Strategy.run p in
    [ ("full pipeline (fuse + contract + shrink + eliminate stores)", p') ]
  in
  fusions @ search_fusion @ contractions @ shrinks
  @ store_elims @ regroups @ tilings @ full_pipeline

let diagnose ~machine (p : Bw_ir.Ast.program) =
  let base = Bw_exec.Run.simulate ~machine p in
  let row =
    { Balance.name = p.Bw_ir.Ast.prog_name;
      Balance.per_boundary = Bw_exec.Run.program_balance base }
  in
  let _, ratio = Balance.worst_ratio row machine in
  let before_traffic = traffic base in
  let suggestions =
    candidates p
    |> List.filter_map (fun (action, p') ->
           match Bw_exec.Run.simulate ~machine p' with
           | exception _ -> None
           | after ->
             if
               not
                 (Bw_exec.Interp.equal_observation
                    base.Bw_exec.Run.observation after.Bw_exec.Run.observation)
             then None
             else begin
               let after_traffic = traffic after in
               if after_traffic >= before_traffic then None
               else
                 Some
                   { action;
                     traffic_before = before_traffic;
                     traffic_after = after_traffic;
                     time_speedup =
                       Bw_exec.Run.seconds base /. Bw_exec.Run.seconds after;
                     apply = p' }
             end)
    |> List.sort (fun a b -> compare a.traffic_after b.traffic_after)
  in
  { program_name = p.Bw_ir.Ast.prog_name;
    machine_name = machine.Bw_machine.Machine.name;
    binding_resource = base.Bw_exec.Run.breakdown.Bw_machine.Timing.binding_resource;
    memory_demand_ratio = ratio;
    analytic =
      Bw_exec.Evaluate.of_program ~machine p;
    suggestions }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s on %s: bound by %s (worst demand/supply %.1fx)@,"
    r.program_name r.machine_name r.binding_resource r.memory_demand_ratio;
  Format.fprintf ppf
    "analytic prediction (no execution): %.3f ms, %.2f MB memory traffic, \
     bound by %s@,"
    (r.analytic.Bw_exec.Evaluate.seconds *. 1e3)
    (Bw_exec.Evaluate.memory_bytes r.analytic /. 1e6)
    r.analytic.Bw_exec.Evaluate.binding_resource;
  (match r.suggestions with
  | [] -> Format.fprintf ppf "no bandwidth-reducing transformation found@,"
  | l ->
    List.iter
      (fun s ->
        Format.fprintf ppf "- %-55s %6.2f MB -> %6.2f MB (%.2fx faster)@,"
          s.action
          (float_of_int s.traffic_before /. 1e6)
          (float_of_int s.traffic_after /. 1e6)
          s.time_speedup)
      l);
  Format.fprintf ppf "@]"
