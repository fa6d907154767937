open Bw_ir.Ast

(* Write-before-read discipline for array [a] at statement-list level,
   assuming all refs use identical subscripts per iteration.  Mirrors
   Depend.scalar_private but for array element accesses. *)
let array_write_first body a =
  let reads_a e =
    Bw_ir.Ast_util.mem_name a (Bw_ir.Ast_util.expr_array_reads e)
  in
  let rec seq written stmts =
    List.fold_left
      (fun (safe, written) stmt ->
        if not safe then (false, written) else step written stmt)
      (true, written) stmts
  and step written stmt =
    match stmt with
    | Assign (lv, e) ->
      let lv_reads =
        match lv with
        | Lscalar _ -> false
        | Lelement (_, idxs) -> List.exists reads_a idxs
      in
      if (reads_a e || lv_reads) && not written then (false, written)
      else (true, written || lvalue_name lv = a)
    | Read_input lv -> (true, written || lvalue_name lv = a)
    | Print e -> if reads_a e && not written then (false, written) else (true, written)
    | If (c, t, e) ->
      let rec cond_reads = function
        | Cmp (_, x, y) -> reads_a x || reads_a y
        | And (x, y) | Or (x, y) -> cond_reads x || cond_reads y
        | Not x -> cond_reads x
      in
      if cond_reads c && not written then (false, written)
      else begin
        let safe_t, wt = seq written t in
        let safe_e, we = seq written e in
        (safe_t && safe_e, wt && we)
      end
    | For l ->
      (* each inner iteration must re-establish the discipline on its own:
         the subscripts involve the inner index, so elements differ per
         inner iteration and the write-first rule must hold within the
         inner body starting from "not written". *)
      let safe, _ = seq written l.body in
      (safe, written)
  in
  let safe, _ = seq false body in
  safe

let refs_of p = Bw_analysis.Refs.collect p.body

let contractable (p : program) =
  let all_refs = refs_of p in
  let ranges = Bw_analysis.Live.analyse p in
  p.decls
  |> List.filter_map (fun d ->
         if not (is_array d) then None
         else
           match Bw_analysis.Live.range_of ranges d.var_name with
           | None -> None
           | Some r ->
             if r.Bw_analysis.Live.live_out then None
             else if r.Bw_analysis.Live.first <> r.Bw_analysis.Live.last then
               None
             else begin
               let mine = Bw_analysis.Refs.of_array d.var_name all_refs in
               match mine with
               | [] -> None
               | first :: rest ->
                 let same_subscripts =
                   List.for_all
                     (fun (x : Bw_analysis.Refs.t) ->
                       x.Bw_analysis.Refs.subscripts
                       = first.Bw_analysis.Refs.subscripts)
                     rest
                 in
                 let stmt = List.nth p.body r.Bw_analysis.Live.first in
                 let enclosing_body =
                   match stmt with For l -> l.body | _ -> [ stmt ]
                 in
                 if
                   same_subscripts
                   && array_write_first enclosing_body d.var_name
                 then Some d.var_name
                 else None
             end)

let rec rewrite_expr a temp e =
  let recur = rewrite_expr a temp in
  match e with
  | Element (a', idxs) ->
    if a' = a then Scalar temp else Element (a', List.map recur idxs)
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Unary (op, x) -> Unary (op, recur x)
  | Binary (op, x, y) -> Binary (op, recur x, recur y)
  | Call (f, args) -> Call (f, List.map recur args)

let rec rewrite_cond a temp c =
  let fe = rewrite_expr a temp and fc = rewrite_cond a temp in
  match c with
  | Cmp (op, x, y) -> Cmp (op, fe x, fe y)
  | And (x, y) -> And (fc x, fc y)
  | Or (x, y) -> Or (fc x, fc y)
  | Not x -> Not (fc x)

let rewrite_lvalue a temp = function
  | Lscalar s -> Lscalar s
  | Lelement (a', idxs) ->
    if a' = a then Lscalar temp
    else Lelement (a', List.map (rewrite_expr a temp) idxs)

let rec rewrite_stmt a temp = function
  | Assign (lv, e) -> Assign (rewrite_lvalue a temp lv, rewrite_expr a temp e)
  | Read_input lv -> Read_input (rewrite_lvalue a temp lv)
  | Print e -> Print (rewrite_expr a temp e)
  | If (c, t, e) ->
    If
      ( rewrite_cond a temp c,
        List.map (rewrite_stmt a temp) t,
        List.map (rewrite_stmt a temp) e )
  | For l -> For { l with body = List.map (rewrite_stmt a temp) l.body }

let contract_one (p : program) a =
  let taken =
    List.map (fun d -> d.var_name) p.decls @ Bw_ir.Ast_util.loop_indices p.body
  in
  let temp = Bw_ir.Ast_util.fresh_name ~taken (a ^ "1") in
  let dtype =
    match find_decl p a with Some d -> d.dtype | None -> F64
  in
  let decls =
    List.filter_map
      (fun d ->
        if d.var_name = a then None else Some d)
      p.decls
    @ [ { var_name = temp; dtype; dims = []; init = Init_zero } ]
  in
  { p with decls; body = List.map (rewrite_stmt a temp) p.body }

let contract_arrays (p : program) =
  let candidates = contractable p in
  (List.fold_left contract_one p candidates, candidates)
