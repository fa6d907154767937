open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

(* One top-level statement's references: per array, its subscript
   lists, sorted so that two arrays used through the same multiset of
   subscripts compare equal. *)
let subscripts_by_array stmt =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : Bw_analysis.Refs.t) ->
      let subs = Option.value ~default:[] (Hashtbl.find_opt tbl r.array) in
      Hashtbl.replace tbl r.array (r.subscripts :: subs))
    (Bw_analysis.Refs.collect [ stmt ]);
  Hashtbl.filter_map_inplace
    (fun _ subs -> Some (List.sort compare (List.rev subs)))
    tbl;
  tbl

let candidates (p : program) =
  let arrays = List.filter is_array p.decls in
  let eligible d =
    not (mem_name d.var_name p.live_out)
  in
  (* built on the first same-shape pair: most programs have none *)
  let stmts = lazy (List.map subscripts_by_array p.body) in
  let subs_of name tbl = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
  (* Are [a] and [b] co-accessed?  At top-level statement granularity
     (simple and conservative), each loop nest must use the two arrays
     through the same multiset of subscript lists. *)
  let co_accessed a b =
    List.for_all (fun tbl -> subs_of a tbl = subs_of b tbl) (Lazy.force stmts)
  in
  let referenced a =
    List.exists (fun tbl -> Hashtbl.mem tbl a) (Lazy.force stmts)
  in
  let rec pairs = function
    | [] -> []
    | d :: rest ->
      List.filter_map
        (fun d' ->
          if
            eligible d && eligible d'
            && d.dims = d'.dims
            && d.dtype = d'.dtype
            && co_accessed d.var_name d'.var_name
            && referenced d.var_name
          then Some (d.var_name, d'.var_name)
          else None)
        rest
      @ pairs rest
  in
  pairs arrays

let rec rewrite_expr a b group e =
  let recur = rewrite_expr a b group in
  match e with
  | Element (name, idxs) when name = a ->
    Element (group, Int_lit 1 :: List.map recur idxs)
  | Element (name, idxs) when name = b ->
    Element (group, Int_lit 2 :: List.map recur idxs)
  | Element (name, idxs) -> Element (name, List.map recur idxs)
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Unary (op, x) -> Unary (op, recur x)
  | Binary (op, x, y) -> Binary (op, recur x, recur y)
  | Call (f, args) -> Call (f, List.map recur args)

let rec rewrite_cond a b group c =
  let fe = rewrite_expr a b group and fc = rewrite_cond a b group in
  match c with
  | Cmp (op, x, y) -> Cmp (op, fe x, fe y)
  | And (x, y) -> And (fc x, fc y)
  | Or (x, y) -> Or (fc x, fc y)
  | Not x -> Not (fc x)

let rewrite_lvalue a b group = function
  | Lscalar s -> Lscalar s
  | Lelement (name, idxs) -> (
    match rewrite_expr a b group (Element (name, idxs)) with
    | Element (name', idxs') -> Lelement (name', idxs')
    | _ -> assert false)

let rec rewrite_stmt a b group = function
  | Assign (lv, e) ->
    Assign (rewrite_lvalue a b group lv, rewrite_expr a b group e)
  | Read_input lv -> Read_input (rewrite_lvalue a b group lv)
  | Print e -> Print (rewrite_expr a b group e)
  | If (c, t, e) ->
    If
      ( rewrite_cond a b group c,
        List.map (rewrite_stmt a b group) t,
        List.map (rewrite_stmt a b group) e )
  | For l -> For { l with body = List.map (rewrite_stmt a b group) l.body }

let regroup_pair (p : program) a b =
  match (find_decl p a, find_decl p b) with
  | Some da, Some db when is_array da && is_array db ->
    if da.dims <> db.dims || da.dtype <> db.dtype then
      Error "arrays have different shapes"
    else if mem_name a p.live_out || mem_name b p.live_out then
      Error "a grouped array is live-out"
    else begin
      let taken =
        List.map (fun d -> d.var_name) p.decls
        @ Bw_ir.Ast_util.loop_indices p.body
      in
      let group = Bw_ir.Ast_util.fresh_name ~taken (a ^ "_" ^ b) in
      (* Interleaving at stride 2 maps group offset k to member offset
         k / 2, so identical member initialisers are reproduced exactly
         by Init_lanes; differing ones cannot be. *)
      if da.init <> db.init then
        Error "arrays have different initialisers"
      else begin
        let init =
          match da.init with
          | Init_zero -> Init_zero
          | other -> Init_lanes (other, 2)
        in
        let decls =
          List.filter (fun d -> d.var_name <> a && d.var_name <> b) p.decls
          @ [ { var_name = group; dtype = da.dtype; dims = 2 :: da.dims; init } ]
        in
        Ok
          { p with
            decls;
            body = List.map (rewrite_stmt a b group) p.body }
      end
    end
  | _ -> Error "no such arrays"

let regroup_all (p : program) =
  let rec go p done_pairs =
    match
      List.find_opt
        (fun (a, b) ->
          not (List.exists (fun (a', b') -> a = a' || b = b' || a = b' || b = a') done_pairs))
        (candidates p)
    with
    | None -> (p, List.rev done_pairs)
    | Some (a, b) -> (
      match regroup_pair p a b with
      | Ok p' -> go p' ((a, b) :: done_pairs)
      | Error _ -> (p, List.rev done_pairs))
  in
  go p []
