open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

type spec = { index_arrays : string list; data_arrays : string list }

let ( let* ) = Result.bind

let find_array (p : program) name =
  match find_decl p name with
  | Some d when is_array d -> Ok d
  | Some _ -> Error (name ^ " is not an array")
  | None -> Error ("no such array: " ^ name)

let extent1 d =
  match d.dims with
  | [ n ] -> Ok n
  | _ -> Error (d.var_name ^ " is not one-dimensional")

(* First top-level statement that references any of the data arrays. *)
let insert_position (p : program) spec =
  let refs_data stmt =
    let refs = Bw_analysis.Refs.collect [ stmt ] in
    List.exists
      (fun (r : Bw_analysis.Refs.t) ->
        mem_name r.Bw_analysis.Refs.array spec.data_arrays)
      refs
  in
  let rec go i = function
    | [] -> Error "data arrays are never referenced"
    | stmt :: _ when refs_data stmt -> Ok i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 p.body

let validate_after (p : program) spec position =
  let after = List.filteri (fun i _ -> i >= position) p.body in
  let refs = Bw_analysis.Refs.collect after in
  (* index arrays must be read-only from here on *)
  let* () =
    match
      List.find_opt
        (fun (r : Bw_analysis.Refs.t) ->
          r.Bw_analysis.Refs.access = Bw_analysis.Refs.Write
          && mem_name r.Bw_analysis.Refs.array spec.index_arrays)
        refs
    with
    | Some r ->
      Error
        (Printf.sprintf "index array '%s' is written after the lists are used"
           r.Bw_analysis.Refs.array)
    | None -> Ok ()
  in
  (* every data-array subscript must be an indirect load from an index
     array *)
  let indirect (r : Bw_analysis.Refs.t) =
    match r.Bw_analysis.Refs.subscripts with
    | [ Element (ia, _) ] -> mem_name ia spec.index_arrays
    | _ -> false
  in
  match
    List.find_opt
      (fun (r : Bw_analysis.Refs.t) ->
        mem_name r.Bw_analysis.Refs.array spec.data_arrays
        && not (indirect r))
      refs
  with
  | Some r ->
    Error
      (Printf.sprintf "array '%s' is accessed directly, not through an index array"
         r.Bw_analysis.Refs.array)
  | None -> Ok ()

let rename_arrays names_map stmts =
  let rename name =
    match Bw_ir.Ast_util.assoc_name name names_map with
    | Some n -> n
    | None -> name
  in
  let rec rn_expr = function
    | Element (a, idxs) -> Element (rename a, List.map rn_expr idxs)
    | (Int_lit _ | Float_lit _ | Scalar _) as e -> e
    | Unary (op, x) -> Unary (op, rn_expr x)
    | Binary (op, x, y) -> Binary (op, rn_expr x, rn_expr y)
    | Call (f, args) -> Call (f, List.map rn_expr args)
  in
  let rec rn_cond = function
    | Cmp (op, x, y) -> Cmp (op, rn_expr x, rn_expr y)
    | And (x, y) -> And (rn_cond x, rn_cond y)
    | Or (x, y) -> Or (rn_cond x, rn_cond y)
    | Not x -> Not (rn_cond x)
  in
  let rn_lvalue = function
    | Lscalar s -> Lscalar s
    | Lelement (a, idxs) -> Lelement (rename a, List.map rn_expr idxs)
  in
  let rec rn_stmt = function
    | Assign (lv, e) -> Assign (rn_lvalue lv, rn_expr e)
    | Read_input lv -> Read_input (rn_lvalue lv)
    | Print e -> Print (rn_expr e)
    | If (c, t, e) -> If (rn_cond c, List.map rn_stmt t, List.map rn_stmt e)
    | For l -> For { l with body = List.map rn_stmt l.body }
  in
  List.map rn_stmt stmts

let fresh taken base =
  let name = Bw_ir.Ast_util.fresh_name ~taken:!taken base in
  taken := name :: !taken;
  name

let split_at n list =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] list

let pack (p : program) spec =
  let open Bw_ir.Builder in
  let* data_decls =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* d = find_array p a in
        Ok (acc @ [ d ]))
      (Ok []) spec.data_arrays
  in
  let* n =
    match data_decls with
    | [] -> Error "no data arrays"
    | d :: rest ->
      let* n = extent1 d in
      if List.for_all (fun d' -> d'.dims = [ n ]) rest then Ok n
      else Error "data arrays have different extents"
  in
  let* index_decls =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* d = find_array p a in
        let* _ = extent1 d in
        if d.dtype = I64 then Ok (acc @ [ d ])
        else Error (a ^ " is not an integer array"))
      (Ok []) spec.index_arrays
  in
  let* position = insert_position p spec in
  let* () = validate_after p spec position in
  let taken =
    ref
      (List.map (fun d -> d.var_name) p.decls
      @ Bw_ir.Ast_util.loop_indices p.body)
  in
  let perm = fresh taken "perm" in
  let pos = fresh taken "pos" in
  let k = fresh taken "pk" in
  let i = fresh taken "pi" in
  let packed =
    List.map (fun a -> (a, fresh taken ("packed_" ^ a))) spec.data_arrays
  in
  (* first-touch numbering over each index array, in order *)
  let number_loop (d : decl) =
    let m = List.hd d.dims in
    let ival = d.var_name $ [ v k ] in
    for_ k (int 1) (int m)
      [ if_
          ((perm $ [ ival ]) =: int 0)
          [ sc pos <-- (v pos +: int 1);
            (perm $. [ ival ]) <-- v pos ]
          [] ]
  in
  let sweep_untouched =
    for_ i (int 1) (int n)
      [ if_
          ((perm $ [ v i ]) =: int 0)
          [ sc pos <-- (v pos +: int 1); (perm $. [ v i ]) <-- v pos ]
          [] ]
  in
  let copy_in =
    List.map
      (fun (a, pa) ->
        for_ i (int 1) (int n)
          [ (pa $. [ perm $ [ v i ] ]) <-- (a $ [ v i ]) ])
      packed
  in
  let remap_indices =
    List.map
      (fun (d : decl) ->
        let m = List.hd d.dims in
        for_ k (int 1) (int m)
          [ (d.var_name $. [ v k ])
            <-- (perm $ [ d.var_name $ [ v k ] ]) ])
      index_decls
  in
  let prologue =
    (Lscalar pos <-- int 0)
    :: (List.map number_loop index_decls
       @ [ sweep_untouched ] @ copy_in @ remap_indices)
  in
  let before, after = split_at position p.body in
  let renamed_after = rename_arrays packed after in
  (* unpack live-out data arrays at the very end *)
  let unpack =
    List.filter_map
      (fun (a, pa) ->
        if mem_name a p.live_out then
          Some
            (for_ i (int 1) (int n)
               [ (a $. [ v i ]) <-- (pa $ [ perm $ [ v i ] ]) ])
        else None)
      packed
  in
  let decls =
    p.decls
    @ [ { var_name = perm; dtype = I64; dims = [ n ]; init = Init_zero };
        { var_name = pos; dtype = I64; dims = []; init = Init_zero } ]
    @ List.map
        (fun (a, pa) ->
          let d = Option.get (find_decl p a) in
          { d with var_name = pa; init = Init_zero })
        packed
  in
  let p' = { p with decls; body = before @ prologue @ renamed_after @ unpack } in
  Bw_ir.Check.check_exn p';
  Ok p'

let group (p : program) spec ~by =
  let open Bw_ir.Builder in
  let* () =
    if mem_name by spec.index_arrays then Ok ()
    else Error ("'" ^ by ^ "' is not one of the index arrays")
  in
  let* data0 =
    match spec.data_arrays with
    | a :: _ -> find_array p a
    | [] -> Error "no data arrays"
  in
  let* n = extent1 data0 in
  let* index_decls =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* d = find_array p a in
        Ok (acc @ [ d ]))
      (Ok []) spec.index_arrays
  in
  let* m =
    match index_decls with
    | [] -> Error "no index arrays"
    | d :: rest ->
      let* m = extent1 d in
      if List.for_all (fun d' -> d'.dims = [ m ]) rest then Ok m
      else Error "index arrays have different extents"
  in
  let* position = insert_position p spec in
  let* () = validate_after p spec position in
  let taken =
    ref
      (List.map (fun d -> d.var_name) p.decls
      @ Bw_ir.Ast_util.loop_indices p.body)
  in
  let cnt = fresh taken "cnt" in
  let run = fresh taken "run" in
  let tmp = fresh taken "cnt_tmp" in
  let slot = fresh taken "slot" in
  let k = fresh taken "gk" in
  let i = fresh taken "gi" in
  let sorted =
    List.map (fun a -> (a, fresh taken ("sorted_" ^ a))) spec.index_arrays
  in
  let prologue =
    [ (* histogram of the grouping key *)
      for_ k (int 1) (int m)
        [ (cnt $. [ by $ [ v k ] ])
          <-- ((cnt $ [ by $ [ v k ] ]) +: int 1) ];
      (* exclusive prefix sum *)
      (Lscalar run <-- int 0);
      for_ i (int 1) (int n)
        [ sc tmp <-- (cnt $ [ v i ]);
          (cnt $. [ v i ]) <-- v run;
          sc run <-- (v run +: v tmp) ];
      (* stable scatter of all parallel index arrays *)
      for_ k (int 1) (int m)
        ([ (cnt $. [ by $ [ v k ] ])
           <-- ((cnt $ [ by $ [ v k ] ]) +: int 1);
           sc slot <-- (cnt $ [ by $ [ v k ] ]) ]
        @ List.map
            (fun (a, sa) -> (sa $. [ v slot ]) <-- (a $ [ v k ]))
            sorted) ]
  in
  let before, after = split_at position p.body in
  let renamed_after = rename_arrays sorted after in
  let decls =
    p.decls
    @ [ { var_name = cnt; dtype = I64; dims = [ n ]; init = Init_zero };
        { var_name = run; dtype = I64; dims = []; init = Init_zero };
        { var_name = tmp; dtype = I64; dims = []; init = Init_zero };
        { var_name = slot; dtype = I64; dims = []; init = Init_zero } ]
    @ List.map
        (fun (a, sa) ->
          let d = Option.get (find_decl p a) in
          { d with var_name = sa; init = Init_zero })
        sorted
  in
  let p' = { p with decls; body = before @ prologue @ renamed_after } in
  Bw_ir.Check.check_exn p';
  Ok p'
