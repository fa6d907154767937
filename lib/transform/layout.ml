open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

type action =
  | Pad of { array : string; extra : int }
  | Interleave of { first : string; second : string }
  | Split of { array : string; lanes : int }
  | Transpose of { array : string }

let action_to_string = function
  | Pad { array; extra } -> Printf.sprintf "pad %s +%d" array extra
  | Interleave { first; second } ->
    Printf.sprintf "interleave %s with %s" first second
  | Split { array; lanes } -> Printf.sprintf "split %s into %d lanes" array lanes
  | Transpose { array } -> Printf.sprintf "transpose %s" array

(* --- generic reference rewriting ---------------------------------------
   [rw name idxs] maps an array reference (read or write) whose
   subscripts are already rewritten; used by Split and Transpose. *)

let rec rw_expr rw e =
  match e with
  | Int_lit _ | Float_lit _ | Scalar _ -> e
  | Element (a, idxs) ->
    let a, idxs = rw a (List.map (rw_expr rw) idxs) in
    Element (a, idxs)
  | Unary (op, x) -> Unary (op, rw_expr rw x)
  | Binary (op, x, y) -> Binary (op, rw_expr rw x, rw_expr rw y)
  | Call (f, args) -> Call (f, List.map (rw_expr rw) args)

let rec rw_cond rw c =
  match c with
  | Cmp (op, x, y) -> Cmp (op, rw_expr rw x, rw_expr rw y)
  | And (x, y) -> And (rw_cond rw x, rw_cond rw y)
  | Or (x, y) -> Or (rw_cond rw x, rw_cond rw y)
  | Not x -> Not (rw_cond rw x)

let rw_lvalue rw = function
  | Lscalar s -> Lscalar s
  | Lelement (a, idxs) ->
    let a, idxs = rw a (List.map (rw_expr rw) idxs) in
    Lelement (a, idxs)

let rec rw_stmt rw = function
  | Assign (lv, e) -> Assign (rw_lvalue rw lv, rw_expr rw e)
  | Read_input lv -> Read_input (rw_lvalue rw lv)
  | Print e -> Print (rw_expr rw e)
  | If (c, t, e) ->
    If (rw_cond rw c, List.map (rw_stmt rw) t, List.map (rw_stmt rw) e)
  | For l ->
    For
      { l with
        lo = rw_expr rw l.lo;
        hi = rw_expr rw l.hi;
        step = rw_expr rw l.step;
        body = List.map (rw_stmt rw) l.body }

let written_arrays body =
  let acc = ref [] in
  let note = function
    | Lelement (a, _) -> acc := a :: !acc
    | Lscalar _ -> ()
  in
  ignore
    (Bw_ir.Ast_util.fold_stmts
       (fun () s ->
         match s with
         | Assign (lv, _) | Read_input lv -> note lv
         | _ -> ())
       () body);
  !acc

let taken_names (p : program) =
  List.map (fun d -> d.var_name) p.decls
  @ Bw_ir.Ast_util.loop_indices p.body

let mentions_index name e =
  List.exists
    (function Scalar s -> s = name | _ -> false)
    (Bw_ir.Ast_util.subexprs e)

(* --- pad ---------------------------------------------------------------- *)

let pad (p : program) array extra =
  if extra <= 0 then Error "pad amount must be positive"
  else
    match find_decl p array with
    | None -> Error (Printf.sprintf "no array '%s'" array)
    | Some d when not (is_array d) ->
      Error (Printf.sprintf "'%s' is a scalar" array)
    | Some _ when mem_name array p.live_out ->
      Error (Printf.sprintf "'%s' is live-out" array)
    | Some d ->
      (* column-major: the last dimension is the slowest, so extending it
         appends storage without renumbering any existing element — the
         initialiser still produces identical values where the program
         looks. *)
      let rec extend = function
        | [] -> assert false
        | [ last ] -> [ last + extra ]
        | x :: rest -> x :: extend rest
      in
      let d' = { d with dims = extend d.dims } in
      Ok
        { p with
          decls =
            List.map (fun e -> if e.var_name = array then d' else e) p.decls }

(* --- split (AoS -> SoA) -------------------------------------------------- *)

let lane_name array c = Printf.sprintf "%s_l%d" array c

let split_init init lanes c =
  match init with
  | Init_zero -> Ok Init_zero
  | Init_linear (a, b) ->
    (* lane [c]'s element [k] sat at flattened offset [(c-1) + lanes*k] *)
    Ok (Init_linear (a +. (b *. float_of_int (c - 1)), b *. float_of_int lanes))
  | Init_lanes (inner, l) when l = lanes -> Ok inner
  | Init_lanes _ -> Error "lane count of initialiser does not match"
  | Init_hash _ -> Error "hash initialiser is offset-dependent, cannot split"

let split (p : program) array lanes =
  match find_decl p array with
  | None -> Error (Printf.sprintf "no array '%s'" array)
  | Some d -> (
    match d.dims with
    | f :: (_ :: _ as rest) when f = lanes && f >= 2 && f <= 8 ->
      if mem_name array p.live_out then
        Error (Printf.sprintf "'%s' is live-out" array)
      else begin
        let refs =
          List.filter
            (fun (a, _) -> a = array)
            (Bw_ir.Ast_util.array_refs p.body)
        in
        let constant_lane = function
          | (_, Int_lit c :: _) when c >= 1 && c <= f -> true
          | _ -> false
        in
        if refs = [] then Error (Printf.sprintf "'%s' is never accessed" array)
        else if not (List.for_all constant_lane refs) then
          Error
            (Printf.sprintf
               "'%s' has a non-constant (or out-of-range) lane subscript" array)
        else begin
          let taken = taken_names p in
          let lane_names = List.init f (fun i -> lane_name array (i + 1)) in
          if List.exists (fun n -> mem_name n taken) lane_names then
            Error "lane names would clash with existing declarations"
          else begin
            let inits =
              List.init f (fun i -> split_init d.init f (i + 1))
            in
            match
              List.find_opt (function Error _ -> true | Ok _ -> false) inits
            with
            | Some (Error msg) -> Error msg
            | _ ->
              let lane_decls =
                List.mapi
                  (fun i init ->
                    { var_name = List.nth lane_names i;
                      dtype = d.dtype;
                      dims = rest;
                      init = (match init with Ok v -> v | Error _ -> assert false)
                    })
                  inits
              in
              let decls =
                List.concat_map
                  (fun e -> if e.var_name = array then lane_decls else [ e ])
                  p.decls
              in
              let rw name idxs =
                if name = array then
                  match idxs with
                  | Int_lit c :: rest_idx -> (lane_name array c, rest_idx)
                  | _ -> assert false (* pre-scan guarantees constant lanes *)
                else (name, idxs)
              in
              Ok { p with decls; body = List.map (rw_stmt rw) p.body }
          end
        end
      end
    | _ ->
      Error
        (Printf.sprintf
           "'%s' is not an array with a leading lane dimension of %d" array
           lanes))

(* --- transpose ----------------------------------------------------------- *)

let transpose (p : program) array =
  match find_decl p array with
  | None -> Error (Printf.sprintf "no array '%s'" array)
  | Some d -> (
    match d.dims with
    | [ d0; d1 ] ->
      if mem_name array (written_arrays p.body) then
        Error (Printf.sprintf "'%s' is written, transposed copy would go stale"
                 array)
      else begin
        let taken = taken_names p in
        let t_name = Bw_ir.Ast_util.fresh_name ~taken (array ^ "_t") in
        let i = Bw_ir.Ast_util.fresh_name ~taken:(t_name :: taken) (array ^ "_i") in
        let j =
          Bw_ir.Ast_util.fresh_name ~taken:(i :: t_name :: taken) (array ^ "_j")
        in
        let t_decl =
          { var_name = t_name; dtype = d.dtype; dims = [ d1; d0 ]; init = Init_zero }
        in
        let decls =
          List.concat_map
            (fun e -> if e.var_name = array then [ e; t_decl ] else [ e ])
            p.decls
        in
        (* inner loop varies the transposed copy's fast subscript, so the
           copy's writes are unit-stride *)
        let copy =
          For
            { index = i;
              lo = Int_lit 1;
              hi = Int_lit d0;
              step = Int_lit 1;
              body =
                [ For
                    { index = j;
                      lo = Int_lit 1;
                      hi = Int_lit d1;
                      step = Int_lit 1;
                      body =
                        [ Assign
                            ( Lelement (t_name, [ Scalar j; Scalar i ]),
                              Element (array, [ Scalar i; Scalar j ]) ) ]
                    } ]
            }
        in
        let rw name idxs =
          if name = array then
            match idxs with
            | [ e1; e2 ] -> (t_name, [ e2; e1 ])
            | _ -> (name, idxs)
          else (name, idxs)
        in
        Ok { p with decls; body = copy :: List.map (rw_stmt rw) p.body }
      end
    | _ -> Error (Printf.sprintf "'%s' is not a 2-D array" array))

let apply p = function
  | Pad { array; extra } -> pad p array extra
  | Interleave { first; second } -> Regroup.regroup_pair p first second
  | Split { array; lanes } -> split p array lanes
  | Transpose { array } -> transpose p array

(* --- candidates ---------------------------------------------------------- *)

(* A 2-D read-only array is transpose-worthy when more of its references
   run the innermost loop index down the slow (second) subscript than
   down the fast (first) one. *)
let transpose_candidates (p : program) =
  let written = written_arrays p.body in
  let two_d =
    List.filter
      (fun d ->
        List.length d.dims = 2 && not (mem_name d.var_name written))
      p.decls
  in
  if two_d = [] then []
  else begin
    let bad = Hashtbl.create 8 and good = Hashtbl.create 8 in
    let bump tbl a = Hashtbl.replace tbl a (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a)) in
    let rec walk indices stmts =
      List.iter
        (fun s ->
          match s with
          | For l ->
            (* bounds run in the enclosing scope *)
            walk (l.index :: indices) l.body
          | If (_, t, e) ->
            walk indices t;
            walk indices e
          | Assign (_, _) | Read_input _ | Print _ -> (
            match indices with
            | [] -> ()
            | innermost :: _ ->
              List.iter
                (fun (a, idxs) ->
                  match idxs with
                  | [ e1; e2 ]
                    when List.exists (fun d -> d.var_name = a) two_d ->
                    if mentions_index innermost e1 then bump good a
                    else if mentions_index innermost e2 then bump bad a
                  | _ -> ())
                (Bw_ir.Ast_util.array_refs [ s ])))
        stmts
    in
    walk [] p.body;
    List.filter_map
      (fun d ->
        let a = d.var_name in
        let b = Option.value ~default:0 (Hashtbl.find_opt bad a) in
        let g = Option.value ~default:0 (Hashtbl.find_opt good a) in
        if b >= 1 && b >= g then Some (Transpose { array = a }) else None)
      two_d
  end

let split_candidates (p : program) =
  let refs = Bw_ir.Ast_util.array_refs p.body in
  List.filter_map
    (fun d ->
      match d.dims with
      | f :: _ :: _ when f >= 2 && f <= 8 && not (mem_name d.var_name p.live_out)
        ->
        let mine = List.filter (fun (a, _) -> a = d.var_name) refs in
        let constant = function
          | (_, Int_lit c :: _) when c >= 1 && c <= f -> true
          | _ -> false
        in
        if mine <> [] && List.for_all constant mine then
          Some (Split { array = d.var_name; lanes = f })
        else None
      | _ -> None)
    p.decls

(* No pads: a pad only makes one declaration larger, which never lowers
   the analytic tier's predicted traffic (test [transform.layout] "pads
   never lower predicted traffic"), so {!run} could not accept one. *)
let candidates (p : program) =
  transpose_candidates p
  @ split_candidates p
  @ List.map
      (fun (a, b) -> Interleave { first = a; second = b })
      (Regroup.candidates p)

(* --- greedy analytic-gated driver ---------------------------------------- *)

let accept_counter = Bw_obs.Metrics.counter "pass.layout.accept"
let reject_counter = Bw_obs.Metrics.counter "pass.layout.reject"

let analytic_traffic ~machine p =
  Bw_exec.Evaluate.memory_bytes (Bw_exec.Evaluate.of_program ~machine p)

(* A candidate must cut predicted memory traffic by more than this share
   of the round's base to be committed. *)
let threshold = 0.02

let run ?(machine = Bw_machine.Machine.origin2000) p =
  let max_rounds = 8 in
  (* [base] is [p]'s price: the committed winner's price is the next
     round's base, so each program is priced once *)
  let rec go p base applied round =
    if round >= max_rounds then (p, List.rev applied)
    else begin
      let scored =
        List.filter_map
          (fun a ->
            match apply p a with
            | Error _ -> None
            | Ok p' -> (
              match Bw_ir.Check.check p' with
              | Error _ -> None
              | Ok () -> Some (a, p', analytic_traffic ~machine p')))
          (candidates p)
      in
      match
        List.sort (fun (_, _, x) (_, _, y) -> compare x y) scored
      with
      | (a, p', best) :: _ when best < base *. (1.0 -. threshold) ->
        Bw_obs.Metrics.incr accept_counter;
        go p' best (a :: applied) (round + 1)
      | _ :: _ ->
        Bw_obs.Metrics.incr ~by:(List.length scored) reject_counter;
        (p, List.rev applied)
      | [] -> (p, List.rev applied)
    end
  in
  go p (analytic_traffic ~machine p) [] 0
