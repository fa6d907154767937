open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

let guard_body ~index ~lo ~hi ~(hull_lo : int) ~(hull_hi : int) body =
  match Bw_analysis.Depend.constant_bounds { index; lo; hi; step = Int_lit 1; body } with
  | Some (l, h, _) when l = hull_lo && h = hull_hi -> body
  | _ ->
    let cond =
      And (Cmp (Ge, Scalar index, lo), Cmp (Le, Scalar index, hi))
    in
    [ If (cond, body, []) ]

let fuse_adjacent (l1 : loop) (l2 : loop) =
  match Bw_analysis.Depend.fusable l1 l2 with
  | Error reason -> Error reason
  | Ok ()
    when l2.index <> l1.index
         && (mem_name l1.index (Bw_ir.Ast_util.loop_indices l2.body)
            || mem_name l1.index (Bw_ir.Ast_util.vars_read l2.body)
            || mem_name l1.index (Bw_ir.Ast_util.vars_written l2.body)) ->
    (* renaming l2's index would capture this occurrence: a nested loop
       over l1.index, or a use of a scalar spelled like it *)
    Error "loop index rename would capture a name in the second body"
  | Ok () ->
    let body2 =
      Bw_ir.Ast_util.rename_scalar ~from:l2.index ~into:l1.index l2.body
    in
    if Bw_analysis.Depend.conformable l1 l2 then
      Ok { l1 with body = l1.body @ body2 }
    else begin
      match
        ( Bw_analysis.Depend.constant_bounds l1,
          Bw_analysis.Depend.constant_bounds l2 )
      with
      | Some (lo1, hi1, s1), Some (lo2, hi2, s2) ->
        if s1 <> s2 then Error "loop steps differ"
        else if s1 <> 1 && (lo1 - lo2) mod s1 <> 0 then
          Error "misaligned strides cannot be hull-fused"
        else begin
          let hull_lo = min lo1 lo2 and hull_hi = max hi1 hi2 in
          let g1 =
            guard_body ~index:l1.index ~lo:(Int_lit lo1) ~hi:(Int_lit hi1)
              ~hull_lo ~hull_hi l1.body
          in
          let g2 =
            guard_body ~index:l1.index ~lo:(Int_lit lo2) ~hi:(Int_lit hi2)
              ~hull_lo ~hull_hi body2
          in
          Ok
            { index = l1.index;
              lo = Int_lit hull_lo;
              hi = Int_lit hull_hi;
              step = l1.step;
              body = g1 @ g2 }
        end
      | _ -> Error "loop bounds are neither conformable nor constant"
    end

let split_at n list =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] list

let fuse_at (p : program) position =
  let before, rest = split_at position p.body in
  match rest with
  | For l1 :: For l2 :: after ->
    Result.map
      (fun fused -> { p with body = before @ (For fused :: after) })
      (fuse_adjacent l1 l2)
  | _ :: _ :: _ -> Error "fuse_at: both statements must be loops"
  | _ -> Error "fuse_at: position out of range"

let apply_plan (p : program) partitions =
  let order = List.concat partitions in
  match Toplevel.reorder p order with
  | Error _ as e -> e
  | Ok reordered ->
    (* positions in [reordered] corresponding to each partition *)
    let body = Array.of_list reordered.body in
    let fuse_group start len =
      if len = 1 then Ok body.(start)
      else
        (* left fold of pairwise fusion *)
        let rec go acc k =
          if k = start + len then Ok acc
          else
            match (acc, body.(k)) with
            | For l1, For l2 -> (
              match fuse_adjacent l1 l2 with
              | Ok fused -> go (For fused) (k + 1)
              | Error e -> Error e)
            | _ -> Error "apply_plan: partitions of size > 1 must be loops"
        in
        go body.(start) (start + 1)
    in
    let rec build idx = function
      | [] -> Ok []
      | part :: rest -> (
        let len = List.length part in
        if len = 0 then Error "apply_plan: empty partition"
        else
          match fuse_group idx len with
          | Error e -> Error e
          | Ok stmt -> (
            match build (idx + len) rest with
            | Ok stmts -> Ok (stmt :: stmts)
            | Error e -> Error e))
    in
    Result.map (fun body -> { p with body }) (build 0 partitions)

let greedy (p : program) =
  let rec sweep p pos =
    if pos + 1 >= List.length p.body then p
    else
      match fuse_at p pos with
      | Ok p' -> sweep p' pos
      | Error _ -> sweep p (pos + 1)
  in
  sweep p 0
