let validate (g : Fusion_graph.t) partitions =
  let n = Fusion_graph.node_count g in
  let flat = List.concat partitions in
  if List.sort compare flat <> List.init n (fun i -> i) then
    Error "not a permutation of the statement positions"
  else begin
    let part_of = Array.make n (-1) in
    List.iteri
      (fun pi nodes -> List.iter (fun v -> part_of.(v) <- pi) nodes)
      partitions;
    let preventing_violation =
      List.find_opt
        (fun (u, v) -> part_of.(u) = part_of.(v))
        g.Fusion_graph.preventing
    in
    match preventing_violation with
    | Some (u, v) ->
      Error
        (Printf.sprintf "fusion-preventing pair %d-%d share a partition" u v)
    | None ->
      let dep_violation =
        Bw_graph.Digraph.fold_edges g.Fusion_graph.deps ~init:None
          ~f:(fun acc u v ->
            match acc with
            | Some _ -> acc
            | None -> if part_of.(u) > part_of.(v) then Some (u, v) else None)
      in
      (match dep_violation with
      | Some (u, v) ->
        Error (Printf.sprintf "dependence %d -> %d flows backwards" u v)
      | None ->
        let unsorted =
          List.exists
            (fun nodes -> List.sort compare nodes <> nodes)
            partitions
        in
        if unsorted then Error "partition members must stay in program order"
        else Ok ())
  end

let arrays_of_partition (g : Fusion_graph.t) nodes =
  List.concat_map
    (fun v -> g.Fusion_graph.nodes.(v).Fusion_graph.arrays)
    nodes
  |> List.sort_uniq compare

let bandwidth_cost g partitions =
  List.fold_left
    (fun acc nodes -> acc + List.length (arrays_of_partition g nodes))
    0 partitions

let shared_arrays (g : Fusion_graph.t) u v =
  let au = g.Fusion_graph.nodes.(u).Fusion_graph.arrays in
  let av = g.Fusion_graph.nodes.(v).Fusion_graph.arrays in
  List.length (List.filter (fun a -> List.mem a av) au)

let edge_weight_cost (g : Fusion_graph.t) partitions =
  let n = Fusion_graph.node_count g in
  let part_of = Array.make n (-1) in
  List.iteri
    (fun pi nodes -> List.iter (fun v -> part_of.(v) <- pi) nodes)
    partitions;
  let total = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if part_of.(u) <> part_of.(v) then total := !total + shared_arrays g u v
    done
  done;
  !total

let unfused (g : Fusion_graph.t) =
  List.init (Fusion_graph.node_count g) (fun i -> [ i ])

let predicted_traffic ?(machine = Bw_machine.Machine.origin2000)
    (p : Bw_ir.Ast.program) partitions =
  match Bw_transform.Fuse.apply_plan p partitions with
  | Error _ as e -> e
  | Ok fused ->
    Ok
      (Bw_exec.Evaluate.memory_bytes
         (Bw_exec.Evaluate.of_program ~machine fused))

(* Canonical partition signature: members joined by '.', partitions by
   '|'.  Distinct plans have distinct signatures because members are
   kept ascending and the outer order is execution order. *)
let signature partitions =
  String.concat "|"
    (List.map
       (fun nodes -> String.concat "." (List.map string_of_int nodes))
       partitions)

type memo = {
  table : (string, (float, string) result) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let memo () = { table = Hashtbl.create 256; hits = 0; misses = 0 }
let memo_hits m = m.hits
let memo_misses m = m.misses

let cache_hit_counter = Bw_obs.Metrics.counter "fusion.search.cache_hit"

let predicted_traffic_memo ?machine ~memo p partitions =
  let key = signature partitions in
  match Hashtbl.find_opt memo.table key with
  | Some r ->
    memo.hits <- memo.hits + 1;
    Bw_obs.Metrics.incr cache_hit_counter;
    r
  | None ->
    memo.misses <- memo.misses + 1;
    let r = predicted_traffic ?machine p partitions in
    Hashtbl.add memo.table key r;
    r
