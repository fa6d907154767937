open Bw_ir.Ast

type access = Read | Write

type loop_context = { index : string; lo : expr; hi : expr; step : expr }

type t = {
  array : string;
  subscripts : expr list;
  affine : Affine.t option list;
  access : access;
  loops : loop_context list;
  position : int;
}

type state = { mutable acc : t list; mutable position : int }

let make st loops access array subscripts =
  let r =
    { array;
      subscripts;
      affine = List.map Affine.of_expr subscripts;
      access;
      loops = List.rev loops;
      position = st.position }
  in
  st.position <- st.position + 1;
  st.acc <- r :: st.acc

let rec scan_expr st loops e =
  match e with
  | Int_lit _ | Float_lit _ | Scalar _ -> ()
  | Element (a, idxs) ->
    List.iter (scan_expr st loops) idxs;
    make st loops Read a idxs
  | Unary (_, e) -> scan_expr st loops e
  | Binary (_, a, b) ->
    scan_expr st loops a;
    scan_expr st loops b
  | Call (_, args) -> List.iter (scan_expr st loops) args

let rec scan_cond st loops = function
  | Cmp (_, a, b) ->
    scan_expr st loops a;
    scan_expr st loops b
  | And (a, b) | Or (a, b) ->
    scan_cond st loops a;
    scan_cond st loops b
  | Not a -> scan_cond st loops a

let scan_lvalue st loops = function
  | Lscalar _ -> ()
  | Lelement (a, idxs) ->
    List.iter (scan_expr st loops) idxs;
    make st loops Write a idxs

let rec scan_stmt st loops = function
  | Assign (lv, e) ->
    scan_expr st loops e;
    scan_lvalue st loops lv
  | Read_input lv -> scan_lvalue st loops lv
  | Print e -> scan_expr st loops e
  | If (c, t, e) ->
    scan_cond st loops c;
    List.iter (scan_stmt st loops) t;
    List.iter (scan_stmt st loops) e
  | For { index; lo; hi; step; body } ->
    scan_expr st loops lo;
    scan_expr st loops hi;
    scan_expr st loops step;
    let ctx = { index; lo; hi; step } in
    List.iter (scan_stmt st (ctx :: loops)) body

let collect stmts =
  let st = { acc = []; position = 0 } in
  List.iter (scan_stmt st []) stmts;
  List.rev st.acc

let of_array name refs = List.filter (fun r -> String.equal r.array name) refs
let reads refs = List.filter (fun r -> r.access = Read) refs
let writes refs = List.filter (fun r -> r.access = Write) refs

let revisit_free r ~under =
  let rec inner = function
    | [] -> []
    | lc :: rest -> if lc.index = under then List.map (fun l -> l.index) rest else inner rest
  in
  let inner_indices = inner r.loops in
  let subscript_vars =
    List.concat_map Bw_ir.Ast_util.expr_reads r.subscripts
  in
  List.for_all
    (fun idx -> Bw_ir.Ast_util.mem_name idx subscript_vars)
    inner_indices

let subscript_wrt r ~index =
  let rec go dim = function
    | [] -> None
    | Some form :: rest ->
      if Affine.coeff form index <> 0 then Some (dim, form)
      else go (dim + 1) rest
    | None :: rest ->
      (* a non-affine dimension might mention the index: check textually *)
      let subscript = List.nth r.subscripts dim in
      if Bw_ir.Ast_util.mem_name index (Bw_ir.Ast_util.expr_reads subscript)
      then None
      else go (dim + 1) rest
  in
  go 0 r.affine

let pp ppf r =
  Format.fprintf ppf "%s %s[%s] under [%s]"
    (match r.access with Read -> "read" | Write -> "write")
    r.array
    (String.concat ","
       (List.map Bw_ir.Pretty.expr_to_string r.subscripts))
    (String.concat "," (List.map (fun l -> l.index) r.loops))
