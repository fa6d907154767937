open Bw_ir.Ast

type plan = {
  array : string;
  loop_position : int;
  dim : int;
  depth : int;
  offsets : int list;
  write_offset : int;
  peeled_columns : int list;
  unrolled_iterations : int list;
}

let pp_plan ppf p =
  Format.fprintf ppf
    "shrink %s: loop@%d dim=%d depth=%d offsets=[%s] write@%d peel=[%s] unroll=[%s]"
    p.array p.loop_position p.dim p.depth
    (String.concat ";" (List.map string_of_int p.offsets))
    p.write_offset
    (String.concat ";" (List.map string_of_int p.peeled_columns))
    (String.concat ";" (List.map string_of_int p.unrolled_iterations))

let storage_bytes (p : program) =
  List.fold_left (fun acc d -> acc + decl_bytes d) 0 p.decls

let ( let* ) r f = Result.bind r f

(* Classify one reference of the target array w.r.t. loop index [x] and
   dimension [dim]. *)
type ref_kind =
  | Windowed of int  (** subscript x + c in [dim] *)
  | Column of int  (** constant subscript K in [dim] *)

let classify_ref ~x ~dim (r : Bw_analysis.Refs.t) =
  match List.nth_opt r.Bw_analysis.Refs.affine dim with
  | None | Some None -> Error "non-affine subscript"
  | Some (Some f) ->
    let c = Bw_analysis.Affine.coeff f x in
    let rest = Bw_analysis.Affine.drop_var f x in
    if c = 1 && Bw_analysis.Affine.is_const rest then Ok (Windowed rest.Bw_analysis.Affine.const)
    else if c = 0 && Bw_analysis.Affine.is_const rest then Ok (Column rest.Bw_analysis.Affine.const)
    else Error "subscript not of the form index + constant"

(* All other dimensions must not mention [x]. *)
let other_dims_free ~x ~dim (r : Bw_analysis.Refs.t) =
  List.for_all
    (fun (d, sub) ->
      d = dim || not (List.mem x (Bw_ir.Ast_util.expr_reads sub)))
    (List.mapi (fun d sub -> (d, sub)) r.Bw_analysis.Refs.subscripts)

(* Each top-level statement's references.  Planning reads one array's
   references from these, so planning every array collects them once —
   and not at all when every array fails the checks before. *)
let stmt_refs (p : program) =
  lazy (List.map (fun stmt -> Bw_analysis.Refs.collect [ stmt ]) p.body)

let plan_with ~refs (p : program) array =
  let* decl =
    match find_decl p array with
    | Some d when is_array d -> Ok d
    | Some _ -> Error "not an array"
    | None -> Error "no such array"
  in
  let* () =
    if List.mem array p.live_out then Error "array is live-out" else Ok ()
  in
  (* refs tagged with the top-level statement position they live in *)
  let tagged =
    List.concat
      (List.mapi
         (fun top in_stmt ->
           Bw_analysis.Refs.of_array array in_stmt |> List.map (fun r -> (top, r)))
         (Lazy.force refs))
  in
  let mine = List.map snd tagged in
  let top_of (r : Bw_analysis.Refs.t) =
    fst (List.find (fun (_, r') -> r' == r) tagged)
  in
  let* () = if mine = [] then Error "array never referenced" else Ok () in
  (* Find the unique top-level loop whose index appears in the subscripts. *)
  let top_loops =
    List.mapi (fun i s -> (i, s)) p.body
    |> List.filter_map (fun (i, s) ->
           match s with For l -> Some (i, l) | _ -> None)
  in
  let candidates =
    List.filter_map
      (fun (pos, (l : loop)) ->
        let uses_index =
          List.exists
            (fun (r : Bw_analysis.Refs.t) ->
              List.exists
                (fun sub -> List.mem l.index (Bw_ir.Ast_util.expr_reads sub))
                r.Bw_analysis.Refs.subscripts)
            mine
        in
        if uses_index then Some (pos, l) else None)
      top_loops
  in
  let* () =
    if candidates = [] then Error "no loop sweeps the array" else Ok ()
  in
  (* Try each sweeping loop in turn; refs under the other candidates must
     then classify as constant columns for the attempt to succeed. *)
  let rec try_candidates errors = function
    | [] ->
      Error
        (match errors with
        | e :: _ -> e
        | [] -> "no loop sweeps the array")
    | candidate :: rest -> (
      match plan_for candidate with
      | Ok plan -> Ok plan
      | Error e -> try_candidates (e :: errors) rest)
  and plan_for (pos, (l : loop)) =
  let x = l.index in
  let* lo, hi, step =
    match Bw_analysis.Depend.constant_bounds l with
    | Some b -> Ok b
    | None -> Error "loop bounds are not constant"
  in
  let* () = if step = 1 then Ok () else Error "loop step must be 1" in
  (* Determine the swept dimension. *)
  let* dim =
    let dims =
      List.concat_map
        (fun (r : Bw_analysis.Refs.t) ->
          List.mapi (fun d sub -> (d, sub)) r.Bw_analysis.Refs.subscripts
          |> List.filter_map (fun (d, sub) ->
                 if List.mem x (Bw_ir.Ast_util.expr_reads sub) then Some d
                 else None))
        mine
      |> List.sort_uniq compare
    in
    match dims with
    | [ d ] -> Ok d
    | [] -> Error "loop index not used in subscripts"
    | _ -> Error "loop index used in several dimensions"
  in
  let* () =
    if List.for_all (other_dims_free ~x ~dim) mine then Ok ()
    else Error "loop index appears in another dimension"
  in
  (* Classify every reference. *)
  let* kinds =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* k = classify_ref ~x ~dim r in
        Ok ((r, k) :: acc))
      (Ok []) mine
    |> Result.map List.rev
  in
  let windowed =
    List.filter_map
      (fun ((r : Bw_analysis.Refs.t), k) ->
        match k with Windowed c -> Some (r, c) | Column _ -> None)
      kinds
  in
  let columns =
    List.filter_map
      (fun ((r : Bw_analysis.Refs.t), k) ->
        match k with Column kc -> Some (r, kc) | Windowed _ -> None)
      kinds
  in
  let* () =
    if windowed = [] then Error "no windowed references to shrink" else Ok ()
  in
  (* Windowed refs must live inside the top-level loop at [pos]. *)
  let* () =
    if List.for_all (fun (r, _) -> top_of r = pos) windowed then Ok ()
    else Error "windowed reference outside the sweeping loop"
  in
  let offsets = List.sort_uniq compare (List.map snd windowed) in
  let write_offsets =
    List.filter_map
      (fun ((r : Bw_analysis.Refs.t), c) ->
        if r.Bw_analysis.Refs.access = Bw_analysis.Refs.Write then Some c
        else None)
      windowed
    |> List.sort_uniq compare
  in
  let* cw =
    match write_offsets with
    | [ c ] -> Ok c
    | [] -> Error "array never written in the loop"
    | _ -> Error "writes at several offsets"
  in
  let max_offset = List.fold_left max min_int offsets in
  let min_offset = List.fold_left min max_int offsets in
  let* () =
    if cw = max_offset then Ok ()
    else Error "a read looks ahead of the write"
  in
  let depth = max_offset - min_offset + 1 in
  (* Same-offset reads must follow the write textually. *)
  let write_positions =
    List.filter_map
      (fun ((r : Bw_analysis.Refs.t), c) ->
        if r.Bw_analysis.Refs.access = Bw_analysis.Refs.Write && c = cw then
          Some r.Bw_analysis.Refs.position
        else None)
      windowed
  in
  let first_write_pos = List.fold_left min max_int write_positions in
  let* () =
    if
      List.for_all
        (fun ((r : Bw_analysis.Refs.t), c) ->
          r.Bw_analysis.Refs.access = Bw_analysis.Refs.Write
          || c < cw
          || (r.Bw_analysis.Refs.position > first_write_pos
             && Bw_analysis.Refs.revisit_free r ~under:x))
        windowed
    then Ok ()
    else Error "read at the write offset precedes the write"
  in
  let* () =
    if
      List.for_all
        (fun ((r : Bw_analysis.Refs.t), _) ->
          Bw_analysis.Refs.revisit_free r ~under:x)
        (List.filter
           (fun ((r : Bw_analysis.Refs.t), _) ->
             r.Bw_analysis.Refs.access = Bw_analysis.Refs.Write)
           windowed)
    then Ok ()
    else Error "a write revisits elements across inner iterations"
  in
  let peeled_columns = List.sort_uniq compare (List.map snd columns) in
  (* Peeled columns must not be written through the window. *)
  let* () =
    if
      List.for_all
        (fun kc ->
          let alias = kc - cw in
          alias < lo || alias > hi)
        peeled_columns
    then Ok ()
    else Error "a windowed write aliases a peeled column"
  in
  (* Peel init safety: first access to each column is a write, or zero init. *)
  let* () =
    if decl.init = Init_zero then Ok ()
    else
      let ok =
        List.for_all
          (fun kc ->
            match
              List.filter (fun (_, kc') -> kc' = kc) columns
              |> List.map fst
              |> List.sort (fun (a : Bw_analysis.Refs.t) b ->
                     compare
                       (top_of a, a.Bw_analysis.Refs.position)
                       (top_of b, b.Bw_analysis.Refs.position))
            with
            | [] -> true
            | first :: _ ->
              first.Bw_analysis.Refs.access = Bw_analysis.Refs.Write)
          peeled_columns
      in
      if ok then Ok () else Error "peeled column reads initial values"
  in
  (* Reads behind the write must resolve to written iterations or to
     peeled columns; collect the boundary iterations to unroll. *)
  let read_offsets =
    List.filter_map
      (fun ((r : Bw_analysis.Refs.t), c) ->
        if r.Bw_analysis.Refs.access = Bw_analysis.Refs.Read then Some c
        else None)
      windowed
    |> List.sort_uniq compare
  in
  let* unroll =
    List.fold_left
      (fun acc cr ->
        let* acc = acc in
        if cr >= cw then Ok acc
        else begin
          (* iterations x in [lo, lo + cw - cr - 1] read column x + cr,
             which is written only before the loop *)
          let rec collect x acc =
            if x > lo + (cw - cr) - 1 then Ok acc
            else if List.mem (x + cr) peeled_columns then
              collect (x + 1) ((x :: acc) [@warning "-26"])
            else Error "a windowed read reaches pre-loop values"
          in
          collect lo acc
        end)
      (Ok []) read_offsets
  in
  (* also unroll any iteration where a windowed read aliases a peeled
     column, even past the prologue window *)
  let alias_iterations =
    List.concat_map
      (fun cr ->
        List.filter_map
          (fun kc ->
            let x0 = kc - cr in
            if x0 >= lo && x0 <= hi then Some x0 else None)
          peeled_columns)
      read_offsets
    |> List.sort_uniq compare
  in
  let unrolled_iterations =
    List.sort_uniq compare (unroll @ alias_iterations)
  in
  let* () =
    if
      List.for_all
        (fun u -> u - lo <= 3 || hi - u <= 3)
        unrolled_iterations
    then Ok ()
    else Error "aliasing iteration too far from the loop boundary"
  in
  let* () =
    if List.length unrolled_iterations * 2 < hi - lo + 1 then Ok ()
    else Error "loop too short to split"
  in
  Ok
    { array;
      loop_position = pos;
      dim;
      depth;
      offsets;
      write_offset = cw;
      peeled_columns;
      unrolled_iterations }
  in
  try_candidates [] candidates

let plan p array = plan_with ~refs:(stmt_refs p) p array

(* ------------------------------------------------------------------ *)
(* Rewriting *)

let remove_nth n list = List.filteri (fun i _ -> i <> n) list

(* Rewrite refs of [array] whose dim-[dim] subscript folds to a constant
   in [peeled] into the peel arrays. *)
let rec peel_expr ~array ~dim ~peel_name e =
  let recur = peel_expr ~array ~dim ~peel_name in
  match e with
  | Element (a, idxs) when a = array -> (
    let idxs = List.map recur idxs in
    match Simplify.fold_expr (List.nth idxs dim) with
    | Int_lit v when peel_name v <> None ->
      Element (Option.get (peel_name v), remove_nth dim idxs)
    | _ -> Element (a, idxs))
  | Element (a, idxs) -> Element (a, List.map recur idxs)
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Unary (op, x) -> Unary (op, recur x)
  | Binary (op, x, y) -> Binary (op, recur x, recur y)
  | Call (f, args) -> Call (f, List.map recur args)

let rec peel_cond ~array ~dim ~peel_name c =
  let fe = peel_expr ~array ~dim ~peel_name in
  let fc = peel_cond ~array ~dim ~peel_name in
  match c with
  | Cmp (op, a, b) -> Cmp (op, fe a, fe b)
  | And (a, b) -> And (fc a, fc b)
  | Or (a, b) -> Or (fc a, fc b)
  | Not a -> Not (fc a)

let peel_lvalue ~array ~dim ~peel_name = function
  | Lscalar s -> Lscalar s
  | Lelement (a, idxs) -> (
    match peel_expr ~array ~dim ~peel_name (Element (a, idxs)) with
    | Element (a', idxs') -> Lelement (a', idxs')
    | _ -> assert false)

let rec peel_stmt ~array ~dim ~peel_name s =
  let fe = peel_expr ~array ~dim ~peel_name in
  let fl = peel_lvalue ~array ~dim ~peel_name in
  match s with
  | Assign (lv, e) -> Assign (fl lv, fe e)
  | Read_input lv -> Read_input (fl lv)
  | Print e -> Print (fe e)
  | If (c, t, e) ->
    If
      ( peel_cond ~array ~dim ~peel_name c,
        List.map (peel_stmt ~array ~dim ~peel_name) t,
        List.map (peel_stmt ~array ~dim ~peel_name) e )
  | For l -> For { l with body = List.map (peel_stmt ~array ~dim ~peel_name) l.body }

(* Rewrite remaining refs of [array] into the modular buffer. *)
let modular_subscript ~base ~depth sub =
  match Simplify.fold_expr sub with
  | Int_lit v -> Int_lit (((v - base) mod depth) + 1)
  | e ->
    Binary
      ( Add,
        Binary (Mod, Simplify.fold_expr (Binary (Sub, e, Int_lit base)), Int_lit depth),
        Int_lit 1 )

let rec modular_expr ~array ~dim ~base ~depth e =
  let recur = modular_expr ~array ~dim ~base ~depth in
  match e with
  | Element (a, idxs) when a = array ->
    let idxs = List.map recur idxs in
    Element
      ( a,
        List.mapi
          (fun d sub ->
            if d = dim then modular_subscript ~base ~depth sub else sub)
          idxs )
  | Element (a, idxs) -> Element (a, List.map recur idxs)
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Unary (op, x) -> Unary (op, recur x)
  | Binary (op, x, y) -> Binary (op, recur x, recur y)
  | Call (f, args) -> Call (f, List.map recur args)

let rec modular_cond ~array ~dim ~base ~depth c =
  let fe = modular_expr ~array ~dim ~base ~depth in
  let fc = modular_cond ~array ~dim ~base ~depth in
  match c with
  | Cmp (op, a, b) -> Cmp (op, fe a, fe b)
  | And (a, b) -> And (fc a, fc b)
  | Or (a, b) -> Or (fc a, fc b)
  | Not a -> Not (fc a)

let modular_lvalue ~array ~dim ~base ~depth = function
  | Lscalar s -> Lscalar s
  | Lelement (a, idxs) -> (
    match modular_expr ~array ~dim ~base ~depth (Element (a, idxs)) with
    | Element (a', idxs') -> Lelement (a', idxs')
    | _ -> assert false)

let rec modular_stmt ~array ~dim ~base ~depth s =
  let fe = modular_expr ~array ~dim ~base ~depth in
  let fl = modular_lvalue ~array ~dim ~base ~depth in
  match s with
  | Assign (lv, e) -> Assign (fl lv, fe e)
  | Read_input lv -> Read_input (fl lv)
  | Print e -> Print (fe e)
  | If (c, t, e) ->
    If
      ( modular_cond ~array ~dim ~base ~depth c,
        List.map (modular_stmt ~array ~dim ~base ~depth) t,
        List.map (modular_stmt ~array ~dim ~base ~depth) e )
  | For l ->
    For { l with body = List.map (modular_stmt ~array ~dim ~base ~depth) l.body }

let apply_with ~refs (p : program) array =
  let* pl = plan_with ~refs p array in
  let decl = Option.get (find_decl p array) in
  let l =
    match List.nth p.body pl.loop_position with
    | For l -> l
    | _ -> assert false
  in
  let lo, hi, _ = Option.get (Bw_analysis.Depend.constant_bounds l) in
  let min_offset = List.fold_left min max_int pl.offsets in
  let base = lo + min_offset in
  (* fresh names for the peel arrays *)
  let taken =
    ref (List.map (fun d -> d.var_name) p.decls @ Bw_ir.Ast_util.loop_indices p.body)
  in
  let peel_names =
    List.map
      (fun kc ->
        let name =
          Bw_ir.Ast_util.fresh_name ~taken:!taken
            (Printf.sprintf "%s_col%d" array (abs kc))
        in
        taken := name :: !taken;
        (kc, name))
      pl.peeled_columns
  in
  let peel_name v = List.assoc_opt v peel_names in
  (* 1. split the sweeping loop around the unrolled iterations *)
  let prefix = List.filter (fun u -> u - lo <= 3) pl.unrolled_iterations in
  let suffix = List.filter (fun u -> u - lo > 3) pl.unrolled_iterations in
  let core_lo = List.fold_left max lo (List.map (fun u -> u + 1) prefix) in
  let core_hi = List.fold_left min hi (List.map (fun u -> u - 1) suffix) in
  let unrolled_at x =
    List.concat_map
      (fun s ->
        Bw_ir.Ast_util.subst_scalar_stmts ~name:l.index ~value:(Int_lit x) [ s ])
      l.body
    |> Simplify.simplify_stmts
  in
  let split_stmts =
    List.concat_map unrolled_at (List.sort compare prefix)
    @ [ For { l with lo = Int_lit core_lo; hi = Int_lit core_hi } ]
    @ List.concat_map unrolled_at (List.sort compare suffix)
  in
  let body =
    List.concat
      (List.mapi
         (fun i s -> if i = pl.loop_position then split_stmts else [ s ])
         p.body)
  in
  (* 2. peel rewrite over the whole program *)
  let body = List.map (peel_stmt ~array ~dim:pl.dim ~peel_name) body in
  (* 3. modular rewrite of the remaining refs *)
  let body =
    List.map (modular_stmt ~array ~dim:pl.dim ~base ~depth:pl.depth) body
  in
  (* 4. declarations: shrink the swept dimension, add the peels *)
  let shrunk_dims =
    List.mapi (fun d ext -> if d = pl.dim then pl.depth else ext) decl.dims
  in
  let peel_decls =
    List.map
      (fun (_, name) ->
        { var_name = name;
          dtype = decl.dtype;
          dims = remove_nth pl.dim decl.dims;
          init = Init_zero })
      peel_names
  in
  let decls =
    List.map
      (fun d ->
        if d.var_name = array then
          { d with dims = shrunk_dims; init = Init_zero }
        else d)
      p.decls
    @ peel_decls
  in
  Ok ({ p with decls; body = Simplify.simplify_stmts body }, pl)

let apply p array = apply_with ~refs:(stmt_refs p) p array

let shrink_all (p : program) =
  let rec go p plans =
    let arrays = List.filter_map (fun d -> if is_array d then Some d.var_name else None) p.decls in
    let refs = stmt_refs p in
    let attempt =
      List.find_map
        (fun a ->
          if List.exists (fun (pl : plan) -> pl.array = a) plans then None
          else match apply_with ~refs p a with Ok r -> Some r | Error _ -> None)
        arrays
    in
    match attempt with
    | Some (p', pl) -> go p' (plans @ [ pl ])
    | None -> (p, plans)
  in
  go p []
