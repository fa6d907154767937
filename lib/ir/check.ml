open Ast

type error = { context : string; message : string }

let pp_error ppf e = Format.fprintf ppf "[%s] %s" e.context e.message

type env = {
  decls : (string, decl) Hashtbl.t;
  mutable loop_stack : string list;
  mutable errors : error list;
  mutable context : string Lazy.t;
      (** rendered only when an error needs it: most statements have none *)
}

let add_error env message =
  env.errors <- { context = Lazy.force env.context; message } :: env.errors

let lookup_dtype env name =
  if Ast_util.mem_name name env.loop_stack then Some I64
  else
    match Hashtbl.find_opt env.decls name with
    | Some d when d.dims = [] -> Some d.dtype
    | Some _ | None -> None

(* Full inference within the checker, resolving array elements. *)
let rec type_expr env e : dtype option =
  match e with
  | Int_lit _ -> Some I64
  | Float_lit _ -> Some F64
  | Scalar s -> (
    match lookup_dtype env s with
    | Some t -> Some t
    | None ->
      (match Hashtbl.find_opt env.decls s with
      | Some d when d.dims <> [] ->
        add_error env
          (Printf.sprintf "array '%s' used without subscripts" s)
      | _ -> add_error env (Printf.sprintf "undeclared scalar '%s'" s));
      None)
  | Element (a, idxs) -> (
    match Hashtbl.find_opt env.decls a with
    | None ->
      add_error env (Printf.sprintf "undeclared array '%s'" a);
      None
    | Some d when d.dims = [] ->
      add_error env (Printf.sprintf "scalar '%s' used with subscripts" a);
      None
    | Some d ->
      if List.length idxs <> List.length d.dims then
        add_error env
          (Printf.sprintf "array '%s' has %d dims but %d subscripts" a
             (List.length d.dims) (List.length idxs));
      List.iter
        (fun idx ->
          match type_expr env idx with
          | Some I64 | None -> ()
          | Some F64 ->
            add_error env
              (Printf.sprintf "non-integer subscript %s of '%s'"
                 (Pretty.expr_to_string idx) a))
        idxs;
      Some d.dtype)
  | Unary (Neg, a) | Unary (Abs, a) -> type_expr env a
  | Unary (Sqrt, a) -> (
    match type_expr env a with
    | Some F64 | None -> Some F64
    | Some I64 ->
      add_error env "sqrt of an integer expression";
      Some F64)
  | Unary (Int_to_float, a) -> (
    match type_expr env a with
    | Some I64 | None -> Some F64
    | Some F64 ->
      add_error env "float() of an already-float expression";
      Some F64)
  | Binary (Mod, a, b) ->
    let ta = type_expr env a and tb = type_expr env b in
    (match (ta, tb) with
    | Some F64, _ | _, Some F64 ->
      add_error env "mod of float expressions";
      Some I64
    | _ -> Some I64)
  | Binary (_, a, b) -> (
    let ta = type_expr env a and tb = type_expr env b in
    match (ta, tb) with
    | Some x, Some y when x <> y ->
      add_error env
        (Printf.sprintf "mixed operand types in %s" (Pretty.expr_to_string e));
      Some x
    | Some x, _ -> Some x
    | None, other -> other)
  | Call (_, args) ->
    List.iter
      (fun a ->
        match type_expr env a with
        | Some I64 -> add_error env "integer argument to intrinsic call"
        | Some F64 | None -> ())
      args;
    Some F64

let rec check_cond env = function
  | Cmp (_, a, b) ->
    let ta = type_expr env a and tb = type_expr env b in
    (match (ta, tb) with
    | Some x, Some y when x <> y -> add_error env "comparison of mixed types"
    | _ -> ())
  | And (a, b) | Or (a, b) ->
    check_cond env a;
    check_cond env b
  | Not a -> check_cond env a

let check_lvalue env lv : dtype option =
  match lv with
  | Lscalar s -> (
    if Ast_util.mem_name s env.loop_stack then begin
      add_error env (Printf.sprintf "assignment to loop index '%s'" s);
      None
    end
    else
      match Hashtbl.find_opt env.decls s with
      | Some d when d.dims = [] -> Some d.dtype
      | Some _ ->
        add_error env (Printf.sprintf "array '%s' assigned as a scalar" s);
        None
      | None ->
        add_error env (Printf.sprintf "assignment to undeclared '%s'" s);
        None)
  | Lelement (a, idxs) -> type_expr env (Element (a, idxs))

let expect_int env what e =
  match type_expr env e with
  | Some I64 | None -> ()
  | Some F64 ->
    add_error env (Printf.sprintf "%s must be an integer expression" what)

let rec check_stmt env s =
  match s with
  | Assign (lv, e) ->
    env.context <- lazy (Format.asprintf "%a" Pretty.pp_stmt s);
    let tl = check_lvalue env lv and tr = type_expr env e in
    (match (tl, tr) with
    | Some a, Some b when a <> b ->
      add_error env "assignment between mixed types"
    | _ -> ())
  | Read_input lv ->
    env.context <- lazy (Format.asprintf "%a" Pretty.pp_stmt s);
    ignore (check_lvalue env lv)
  | Print e ->
    env.context <- lazy (Format.asprintf "%a" Pretty.pp_stmt s);
    ignore (type_expr env e)
  | If (c, t, e) ->
    env.context <- Lazy.from_val "if";
    check_cond env c;
    List.iter (check_stmt env) t;
    List.iter (check_stmt env) e
  | For { index; lo; hi; step; body } ->
    env.context <- lazy (Printf.sprintf "for %s" index);
    if Hashtbl.mem env.decls index then
      add_error env
        (Printf.sprintf "loop index '%s' shadows a declaration" index);
    if Ast_util.mem_name index env.loop_stack then
      add_error env
        (Printf.sprintf "loop index '%s' shadows an enclosing loop" index);
    expect_int env "loop lower bound" lo;
    expect_int env "loop upper bound" hi;
    expect_int env "loop step" step;
    env.loop_stack <- index :: env.loop_stack;
    List.iter (check_stmt env) body;
    env.loop_stack <- List.tl env.loop_stack

let check (p : program) =
  let decls = Hashtbl.create 16 in
  let errors = ref [] in
  List.iter
    (fun d ->
      if Hashtbl.mem decls d.var_name then
        errors :=
          { context = "decls";
            message = Printf.sprintf "duplicate declaration '%s'" d.var_name }
          :: !errors;
      if List.exists (fun e -> e <= 0) d.dims then
        errors :=
          { context = "decls";
            message = Printf.sprintf "non-positive extent in '%s'" d.var_name }
          :: !errors;
      Hashtbl.replace decls d.var_name d)
    p.decls;
  List.iter
    (fun name ->
      if not (Hashtbl.mem decls name) then
        errors :=
          { context = "live_out";
            message = Printf.sprintf "undeclared live-out '%s'" name }
          :: !errors)
    p.live_out;
  let env =
    { decls; loop_stack = []; errors = !errors; context = Lazy.from_val "body" }
  in
  List.iter (check_stmt env) p.body;
  match env.errors with [] -> Ok () | es -> Error (List.rev es)

let check_exn p =
  match check p with
  | Ok () -> ()
  | Error es ->
    let msg =
      es
      |> List.map (fun e -> Format.asprintf "%a" pp_error e)
      |> String.concat "; "
    in
    invalid_arg (Printf.sprintf "program '%s' ill-formed: %s" p.prog_name msg)
