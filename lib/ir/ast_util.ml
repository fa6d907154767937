open Ast

module Names = Hashtbl.Make (String)

let rec mem_name x = function
  | [] -> false
  | y :: rest -> String.equal x y || mem_name x rest

let rec assoc_name x = function
  | [] -> None
  | (y, v) :: rest -> if String.equal x y then Some v else assoc_name x rest

let rec subexprs e =
  e
  ::
  (match e with
  | Int_lit _ | Float_lit _ | Scalar _ -> []
  | Element (_, idxs) -> List.concat_map subexprs idxs
  | Unary (_, a) -> subexprs a
  | Binary (_, a, b) -> subexprs a @ subexprs b
  | Call (_, args) -> List.concat_map subexprs args)

let rec fold_cond_exprs f acc = function
  | Cmp (_, a, b) -> f (f acc a) b
  | And (a, b) | Or (a, b) -> fold_cond_exprs f (fold_cond_exprs f acc a) b
  | Not a -> fold_cond_exprs f acc a

let lvalue_exprs = function Lscalar _ -> [] | Lelement (_, idxs) -> idxs

let rec fold_stmt_exprs f acc stmt =
  match stmt with
  | Assign (lv, e) -> f (List.fold_left f acc (lvalue_exprs lv)) e
  | Read_input lv -> List.fold_left f acc (lvalue_exprs lv)
  | Print e -> f acc e
  | If (c, t, e) ->
    let acc = fold_cond_exprs f acc c in
    fold_stmts_exprs f (fold_stmts_exprs f acc t) e
  | For { lo; hi; step; body; _ } ->
    let acc = f (f (f acc lo) hi) step in
    fold_stmts_exprs f acc body

and fold_stmts_exprs f acc stmts = List.fold_left (fold_stmt_exprs f) acc stmts

let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | If (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
      | For { body; _ } -> fold_stmts f acc body
      | Assign _ | Read_input _ | Print _ -> acc)
    acc stmts

(* Conses the names [e] reads onto [acc], last-read first. *)
let rec push_reads acc = function
  | Int_lit _ | Float_lit _ -> acc
  | Scalar s -> s :: acc
  | Element (a, idxs) -> List.fold_left push_reads (a :: acc) idxs
  | Unary (_, e) -> push_reads acc e
  | Binary (_, a, b) -> push_reads (push_reads acc a) b
  | Call (_, args) -> List.fold_left push_reads acc args

let expr_reads e = List.rev (push_reads [] e)

(* Conses every array reference of [e], as (array, subscripts), onto
   [acc], last first. *)
let rec push_refs acc = function
  | Int_lit _ | Float_lit _ | Scalar _ -> acc
  | Element (a, idxs) -> List.fold_left push_refs ((a, idxs) :: acc) idxs
  | Unary (_, x) -> push_refs acc x
  | Binary (_, x, y) -> push_refs (push_refs acc x) y
  | Call (_, args) -> List.fold_left push_refs acc args

let push_lvalue_refs acc = function
  | Lscalar _ -> acc
  | Lelement (a, idxs) -> List.fold_left push_refs ((a, idxs) :: acc) idxs

let array_refs stmts =
  let rec stmt acc = function
    | Assign (lv, e) -> push_lvalue_refs (push_refs acc e) lv
    | Read_input lv -> push_lvalue_refs acc lv
    | Print e -> push_refs acc e
    | If (c, t, e) ->
      List.fold_left stmt
        (List.fold_left stmt (fold_cond_exprs push_refs acc c) t)
        e
    | For l ->
      let acc = push_refs (push_refs (push_refs acc l.lo) l.hi) l.step in
      List.fold_left stmt acc l.body
  in
  List.fold_left stmt [] stmts

let rec expr_array_reads = function
  | Int_lit _ | Float_lit _ | Scalar _ -> []
  | Element (a, idxs) -> a :: List.concat_map expr_array_reads idxs
  | Unary (_, e) -> expr_array_reads e
  | Binary (_, a, b) -> expr_array_reads a @ expr_array_reads b
  | Call (_, args) -> List.concat_map expr_array_reads args

let dedup_keep_order names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    names

let vars_read stmts =
  fold_stmts_exprs push_reads [] stmts |> List.rev |> dedup_keep_order

let vars_written stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Assign (lv, _) | Read_input lv -> lvalue_name lv :: acc
      | If _ | For _ | Print _ -> acc)
    [] stmts
  |> List.rev |> dedup_keep_order

let arrays_accessed program stmts =
  let is_array name =
    match find_decl program name with Some d -> is_array d | None -> false
  in
  (vars_read stmts @ vars_written stmts)
  |> List.filter is_array |> dedup_keep_order

let loop_indices stmts =
  fold_stmts
    (fun acc s -> match s with For { index; _ } -> index :: acc | _ -> acc)
    [] stmts
  |> List.rev |> dedup_keep_order

let rec subst_scalar ~name ~value e =
  let recur = subst_scalar ~name ~value in
  match e with
  | Scalar s when s = name -> value
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Element (a, idxs) -> Element (a, List.map recur idxs)
  | Unary (op, a) -> Unary (op, recur a)
  | Binary (op, a, b) -> Binary (op, recur a, recur b)
  | Call (f, args) -> Call (f, List.map recur args)

let rec subst_cond ~name ~value c =
  let fe = subst_scalar ~name ~value and fc = subst_cond ~name ~value in
  match c with
  | Cmp (op, a, b) -> Cmp (op, fe a, fe b)
  | And (a, b) -> And (fc a, fc b)
  | Or (a, b) -> Or (fc a, fc b)
  | Not a -> Not (fc a)

let subst_lvalue ~name ~value = function
  | Lscalar s -> Lscalar s
  | Lelement (a, idxs) ->
    Lelement (a, List.map (subst_scalar ~name ~value) idxs)

let rec subst_scalar_stmt ~name ~value s =
  let fe = subst_scalar ~name ~value in
  match s with
  | Assign (lv, e) ->
    if lvalue_name lv = name then
      invalid_arg "Ast_util.subst_scalar_stmts: variable is written";
    Assign (subst_lvalue ~name ~value lv, fe e)
  | Read_input lv ->
    if lvalue_name lv = name then
      invalid_arg "Ast_util.subst_scalar_stmts: variable is written";
    Read_input (subst_lvalue ~name ~value lv)
  | Print e -> Print (fe e)
  | If (c, t, e) ->
    If
      ( subst_cond ~name ~value c,
        subst_scalar_stmts ~name ~value t,
        subst_scalar_stmts ~name ~value e )
  | For l ->
    if l.index = name then
      (* The loop rebinds the name: bounds still see the outer value. *)
      For { l with lo = fe l.lo; hi = fe l.hi; step = fe l.step }
    else
      For
        { l with
          lo = fe l.lo;
          hi = fe l.hi;
          step = fe l.step;
          body = subst_scalar_stmts ~name ~value l.body }

and subst_scalar_stmts ~name ~value stmts =
  List.map (subst_scalar_stmt ~name ~value) stmts

let rename_scalar ~from ~into stmts =
  let rec rn_expr e =
    match e with
    | Scalar s when s = from -> Scalar into
    | Int_lit _ | Float_lit _ | Scalar _ -> e
    | Element (a, idxs) -> Element (a, List.map rn_expr idxs)
    | Unary (op, a) -> Unary (op, rn_expr a)
    | Binary (op, a, b) -> Binary (op, rn_expr a, rn_expr b)
    | Call (f, args) -> Call (f, List.map rn_expr args)
  in
  let rec rn_cond = function
    | Cmp (op, a, b) -> Cmp (op, rn_expr a, rn_expr b)
    | And (a, b) -> And (rn_cond a, rn_cond b)
    | Or (a, b) -> Or (rn_cond a, rn_cond b)
    | Not a -> Not (rn_cond a)
  in
  let rn_lvalue = function
    | Lscalar s -> Lscalar (if s = from then into else s)
    | Lelement (a, idxs) -> Lelement (a, List.map rn_expr idxs)
  in
  let rec rn_stmt = function
    | Assign (lv, e) -> Assign (rn_lvalue lv, rn_expr e)
    | Read_input lv -> Read_input (rn_lvalue lv)
    | Print e -> Print (rn_expr e)
    | If (c, t, e) -> If (rn_cond c, List.map rn_stmt t, List.map rn_stmt e)
    | For l ->
      For
        { index = (if l.index = from then into else l.index);
          lo = rn_expr l.lo;
          hi = rn_expr l.hi;
          step = rn_expr l.step;
          body = List.map rn_stmt l.body }
  in
  List.map rn_stmt stmts

let rec rewrite_stmts f stmts =
  List.map
    (fun s ->
      let s' =
        match s with
        | If (c, t, e) -> If (c, rewrite_stmts f t, rewrite_stmts f e)
        | For l -> For { l with body = rewrite_stmts f l.body }
        | Assign _ | Read_input _ | Print _ -> s
      in
      f s')
    stmts

let stmt_count stmts = fold_stmts (fun acc _ -> acc + 1) 0 stmts

let fresh_name ~taken base =
  if not (mem_name base taken) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s%d" base i in
      if mem_name candidate taken then go (i + 1) else candidate
    in
    go 1
