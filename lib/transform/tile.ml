open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

(* Collect a perfect nest: loops whose body is exactly one inner loop. *)
let rec collect_nest (l : loop) =
  match l.body with
  | [ For inner ] ->
    let loops, body = collect_nest inner in
    (l :: loops, body)
  | body -> ([ l ], body)

let rebuild_nest loops innermost_body =
  let rec go : loop list -> loop = function
    | [] -> invalid_arg "rebuild_nest: empty"
    | [ l ] -> { l with body = innermost_body }
    | l :: rest -> { l with body = [ For (go rest) ] }
  in
  go loops

(* Conservative full-permutability test for a nest: inner bounds must not
   depend on outer indices, and every array written in the body must be
   read only at syntactically identical subscripts (pure reduction) or
   not read at all.  Scalars must be loop indices or private. *)
let permutable loops innermost_body =
  let indices = List.map (fun l -> l.index) loops in
  let bounds_independent =
    List.for_all
      (fun l ->
        List.for_all
          (fun e ->
            List.for_all
              (fun v -> not (mem_name v indices))
              (Bw_ir.Ast_util.expr_reads e))
          [ l.lo; l.hi; l.step ])
      loops
  in
  if not bounds_independent then Error "inner bounds depend on outer indices"
  else begin
    let refs = Bw_analysis.Refs.collect innermost_body in
    let bad_array =
      List.find_map
        (fun (w : Bw_analysis.Refs.t) ->
          if w.Bw_analysis.Refs.access <> Bw_analysis.Refs.Write then None
          else
            let offending =
              List.exists
                (fun (r : Bw_analysis.Refs.t) ->
                  r.Bw_analysis.Refs.access = Bw_analysis.Refs.Read
                  && r.Bw_analysis.Refs.array = w.Bw_analysis.Refs.array
                  && r.Bw_analysis.Refs.subscripts
                     <> w.Bw_analysis.Refs.subscripts)
                refs
            in
            if offending then Some w.Bw_analysis.Refs.array else None)
        refs
    in
    match bad_array with
    | Some a -> Error (Printf.sprintf "array '%s' blocks permutation" a)
    | None ->
      let arrays =
        List.map (fun (r : Bw_analysis.Refs.t) -> r.Bw_analysis.Refs.array) refs
      in
      let inner_indices = Bw_ir.Ast_util.loop_indices innermost_body in
      let scalars =
        Bw_ir.Ast_util.vars_written innermost_body
        |> List.filter (fun v ->
               (not (mem_name v arrays))
               && (not (mem_name v indices))
               && not (mem_name v inner_indices))
      in
      let bad_scalar =
        List.find_opt
          (fun s ->
            not (Bw_analysis.Depend.scalar_private innermost_body s))
          scalars
      in
      (match bad_scalar with
      | Some s -> Error (Printf.sprintf "scalar '%s' blocks permutation" s)
      | None -> Ok ())
  end

let interchange (l : loop) =
  match l.body with
  | [ For inner ] -> (
    match permutable [ l; inner ] inner.body with
    | Error e -> Error e
    | Ok () -> Ok { inner with body = [ For { l with body = inner.body } ] })
  | _ -> Error "interchange: not a perfect 2-deep nest"

let strip_mine (l : loop) ~tile ~outer_index =
  if tile <= 0 then Error "strip_mine: non-positive tile"
  else
    match Bw_analysis.Depend.constant_bounds l with
    | Some (lo, hi, 1) ->
      let inner_hi =
        Binary (Min, Binary (Add, Scalar outer_index, Int_lit (tile - 1)), Int_lit hi)
      in
      Ok
        { index = outer_index;
          lo = Int_lit lo;
          hi = Int_lit hi;
          step = Int_lit tile;
          body =
            [ For { l with lo = Scalar outer_index; hi = inner_hi } ] }
    | Some _ -> Error "strip_mine: step must be 1"
    | None -> Error "strip_mine: bounds must be constant"

let tile_nest (l : loop) ~tiles =
  let loops, innermost_body = collect_nest l in
  match permutable loops innermost_body with
  | Error e -> Error e
  | Ok () ->
    let indices = List.map (fun lp -> lp.index) loops in
    if List.exists (fun (i, _) -> not (mem_name i indices)) tiles then
      Error "tile_nest: unknown loop index"
    else if List.exists (fun (_, t) -> t <= 0) tiles then
      Error "tile_nest: non-positive tile"
    else begin
      let taken =
        ref (indices @ Bw_ir.Ast_util.loop_indices innermost_body)
      in
      let tile_loops = ref [] and element_loops = ref [] in
      let result =
        List.fold_left
          (fun ok lp ->
            match ok with
            | Error _ as e -> e
            | Ok () -> (
              match Bw_ir.Ast_util.assoc_name lp.index tiles with
              | None ->
                element_loops := !element_loops @ [ lp ];
                Ok ()
              | Some t -> (
                match Bw_analysis.Depend.constant_bounds lp with
                | Some (lo, hi, 1) ->
                  let tname =
                    Bw_ir.Ast_util.fresh_name ~taken:!taken
                      (lp.index ^ lp.index)
                  in
                  taken := tname :: !taken;
                  tile_loops :=
                    !tile_loops
                    @ [ { index = tname;
                          lo = Int_lit lo;
                          hi = Int_lit hi;
                          step = Int_lit t;
                          body = [] } ];
                  let elem_hi =
                    Binary
                      ( Min,
                        Binary (Add, Scalar tname, Int_lit (t - 1)),
                        Int_lit hi )
                  in
                  element_loops :=
                    !element_loops
                    @ [ { lp with lo = Scalar tname; hi = elem_hi } ];
                  Ok ()
                | Some _ -> Error "tile_nest: step must be 1"
                | None -> Error "tile_nest: bounds must be constant")))
          (Ok ()) loops
      in
      match result with
      | Error e -> Error e
      | Ok () -> Ok (rebuild_nest (!tile_loops @ !element_loops) innermost_body)
    end
