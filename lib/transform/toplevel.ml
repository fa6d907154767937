open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

let stmt_vars stmt =
  let reads = Bw_ir.Ast_util.vars_read [ stmt ] in
  let writes = Bw_ir.Ast_util.vars_written [ stmt ] in
  let indices = Bw_ir.Ast_util.loop_indices [ stmt ] in
  let strip vars = List.filter (fun v -> not (mem_name v indices)) vars in
  (strip reads, strip writes)

let dep_graph (p : program) =
  let n = List.length p.body in
  let g = Bw_graph.Digraph.create ~size_hint:n () in
  Bw_graph.Digraph.ensure_nodes g n;
  let accesses = Array.of_list (List.map stmt_vars p.body) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let reads_a, writes_a = accesses.(a) in
      let reads_b, writes_b = accesses.(b) in
      let conflict =
        List.exists (fun v -> mem_name v reads_b || mem_name v writes_b) writes_a
        || List.exists (fun v -> mem_name v writes_b) reads_a
      in
      if conflict then Bw_graph.Digraph.add_edge g a b
    done
  done;
  g

let order_respects_deps p order =
  let g = dep_graph p in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  Bw_graph.Digraph.fold_edges g ~init:true ~f:(fun ok a b ->
      ok
      &&
      match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
      | Some pa, Some pb -> pa < pb
      | _ -> false)

let reorder (p : program) order =
  let n = List.length p.body in
  if List.sort compare order <> List.init n (fun i -> i) then
    Error "reorder: order is not a permutation of statement positions"
  else if not (order_respects_deps p order) then
    Error "reorder: order violates a top-level dependence"
  else begin
    let body = Array.of_list p.body in
    Ok { p with body = List.map (fun i -> body.(i)) order }
  end
