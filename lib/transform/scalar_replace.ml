open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

(* Does [stmt] write array [a] or any variable read by [subscripts]? *)
let blocks a subscripts stmt =
  let written = Bw_ir.Ast_util.vars_written [ stmt ] in
  let subscript_vars = List.concat_map Bw_ir.Ast_util.expr_reads subscripts in
  mem_name a written || List.exists (fun v -> mem_name v written) subscript_vars

(* Replace reads [Element (a, subs)] by [Scalar temp] in an expression. *)
let rec replace_expr a subs temp e =
  let recur = replace_expr a subs temp in
  match e with
  | Element (a', subs') when a' = a && subs' = subs -> Scalar temp
  | Element (a', subs') -> Element (a', List.map recur subs')
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Unary (op, x) -> Unary (op, recur x)
  | Binary (op, x, y) -> Binary (op, recur x, recur y)
  | Call (f, args) -> Call (f, List.map recur args)

let rec replace_cond a subs temp c =
  let fe = replace_expr a subs temp and fc = replace_cond a subs temp in
  match c with
  | Cmp (op, x, y) -> Cmp (op, fe x, fe y)
  | And (x, y) -> And (fc x, fc y)
  | Or (x, y) -> Or (fc x, fc y)
  | Not x -> Not (fc x)

(* Forward through a statement list.  Returns rewritten statements and
   whether any replacement happened. *)
let rec forward_in_tail a subs temp stmts =
  match stmts with
  | [] -> ([], false)
  | stmt :: rest ->
    if blocks a subs stmt || (match stmt with For _ -> true | _ -> false)
    then (stmt :: rest, false)
    else begin
      let stmt', hit =
        match stmt with
        | Assign (lv, e) ->
          let e' = replace_expr a subs temp e in
          let lv' =
            match lv with
            | Lscalar _ -> lv
            | Lelement (arr, idxs) ->
              Lelement (arr, List.map (replace_expr a subs temp) idxs)
          in
          (Assign (lv', e'), e' <> e || lv' <> lv)
        | Print e ->
          let e' = replace_expr a subs temp e in
          (Print e', e' <> e)
        | Read_input lv ->
          let lv' =
            match lv with
            | Lscalar _ -> lv
            | Lelement (arr, idxs) ->
              Lelement (arr, List.map (replace_expr a subs temp) idxs)
          in
          (Read_input lv', lv' <> lv)
        | If (c, t, e) ->
          (* branches see the same iteration; descend into both *)
          let c' = replace_cond a subs temp c in
          let t', ht = forward_in_tail a subs temp t in
          let e', he = forward_in_tail a subs temp e in
          (If (c', t', e'), c' <> c || ht || he)
        | For _ -> (stmt, false)
      in
      let rest', hit_rest = forward_in_tail a subs temp rest in
      (stmt' :: rest', hit || hit_rest)
    end

(* Process one straight-line statement list (a loop body or branch). *)
let rec forward_in_body ~decls ~new_decls ~counter stmts =
  match stmts with
  | [] -> []
  | Assign (Lelement (a, subs), rhs) :: rest ->
    (* would a temp be used? probe the tail first *)
    let probe_temp = "__probe__" in
    let _, would_hit = forward_in_tail a subs probe_temp rest in
    if would_hit then begin
      let taken =
        List.map (fun d -> d.var_name) (decls @ !new_decls)
        @ [ probe_temp ]
      in
      let temp = Bw_ir.Ast_util.fresh_name ~taken (a ^ "_val") in
      (* the temp must carry the array's element type: forwarding an
         integer array through a float scalar produces ill-typed IR *)
      let dtype =
        match List.find_opt (fun d -> d.var_name = a) decls with
        | Some d -> d.dtype
        | None -> F64
      in
      new_decls :=
        !new_decls @ [ { var_name = temp; dtype; dims = []; init = Init_zero } ];
      incr counter;
      let rest', _ = forward_in_tail a subs temp rest in
      Assign (Lscalar temp, rhs)
      :: Assign (Lelement (a, subs), Scalar temp)
      :: forward_in_body ~decls ~new_decls ~counter rest'
    end
    else
      Assign (Lelement (a, subs), rhs)
      :: forward_in_body ~decls ~new_decls ~counter rest
  | If (c, t, e) :: rest ->
    If
      ( c,
        forward_in_body ~decls ~new_decls ~counter t,
        forward_in_body ~decls ~new_decls ~counter e )
    :: forward_in_body ~decls ~new_decls ~counter rest
  | For l :: rest ->
    For { l with body = forward_in_body ~decls ~new_decls ~counter l.body }
    :: forward_in_body ~decls ~new_decls ~counter rest
  | stmt :: rest -> stmt :: forward_in_body ~decls ~new_decls ~counter rest

let forward_stores (p : program) =
  let new_decls = ref [] in
  let counter = ref 0 in
  let body =
    forward_in_body ~decls:p.decls ~new_decls ~counter p.body
  in
  ({ p with decls = p.decls @ !new_decls; body }, !counter)
