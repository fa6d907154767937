open Bw_ir.Ast

let mem_name = Bw_ir.Ast_util.mem_name

module Names = Bw_ir.Ast_util.Names

type answer = Independent | Dependent of int option | Unknown

let pp_answer ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Dependent (Some d) -> Format.fprintf ppf "dependent(d=%d)" d
  | Dependent None -> Format.pp_print_string ppf "dependent(?)"
  | Unknown -> Format.pp_print_string ppf "unknown"

(* Verdict for one subscript dimension. *)
type dim_verdict =
  | Dim_never  (** never equal: whole pair independent *)
  | Dim_any  (** imposes no constraint on the tested index *)
  | Dim_distance of int  (** equal iff iter2 - iter1 = d *)
  | Dim_unknown

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let dim_test ~index a1 a2 =
  match (a1, a2) with
  | None, _ | _, None -> Dim_unknown
  | Some f1, Some f2 ->
    let c1 = Affine.coeff f1 index and c2 = Affine.coeff f2 index in
    let rest1 = Affine.drop_var f1 index and rest2 = Affine.drop_var f2 index in
    if c1 = 0 && c2 = 0 then
      if Affine.equal rest1 rest2 then Dim_any
      else if Affine.is_const rest1 && Affine.is_const rest2 then Dim_never
      else
        (* differing symbolic parts: other (inner) indices sweep full
           ranges, so a match is possible; no constraint on [index] *)
        Dim_any
    else if c1 = c2 then
      if Affine.equal rest1 rest2 then
        (* c*i1 + r = c*i2 + r  =>  i1 = i2 *)
        Dim_distance 0
      else if Affine.is_const rest1 && Affine.is_const rest2 then begin
        (* c*i1 + k1 = c*i2 + k2  =>  i2 - i1 = (k1 - k2) / c *)
        let diff = rest1.Affine.const - rest2.Affine.const in
        if diff mod c1 = 0 then Dim_distance (diff / c1) else Dim_never
      end
      else Dim_unknown
    else if Affine.is_const rest1 && Affine.is_const rest2 then begin
      (* mismatched coefficients: the GCD test.  c1*i1 - c2*i2 = k2 - k1
         has an integer solution iff gcd(c1, c2) divides the difference
         (weak-zero SIV falls out as the c = 0 case). *)
      let diff = rest2.Affine.const - rest1.Affine.const in
      let g = gcd c1 c2 in
      if g <> 0 && diff mod g <> 0 then Dim_never else Dim_unknown
    end
    else Dim_unknown

let pair_test ~index (r1 : Refs.t) (r2 : Refs.t) =
  if r1.Refs.array <> r2.Refs.array then Independent
  else if List.length r1.Refs.affine <> List.length r2.Refs.affine then Unknown
  else begin
    let verdicts =
      List.map2 (fun a1 a2 -> dim_test ~index a1 a2) r1.Refs.affine
        r2.Refs.affine
    in
    let rec combine distance unknown = function
      | [] ->
        if unknown then Unknown
        else Dependent distance
      | Dim_never :: _ -> Independent
      | Dim_any :: rest -> combine distance unknown rest
      | Dim_unknown :: rest -> combine distance true rest
      | Dim_distance d :: rest -> (
        match distance with
        | None -> combine (Some d) unknown rest
        | Some d' when d = d' -> combine distance unknown rest
        | Some _ ->
          (* two dimensions demand different distances: no solution *)
          Independent)
    in
    combine None false verdicts
  end

type pair_info = {
  array : string;
  acc1 : Refs.access;
  acc2 : Refs.access;
  answer : answer;
}

let loop_pairs (l : loop) =
  let refs = Refs.collect l.body in
  List.concat_map
    (fun (r1 : Refs.t) ->
      List.filter_map
        (fun (r2 : Refs.t) ->
          if r2.Refs.position <= r1.Refs.position then None
          else if r1.Refs.array <> r2.Refs.array then None
          else if r1.Refs.access = Refs.Read && r2.Refs.access = Refs.Read then
            None
          else
            Some
              { array = r1.Refs.array;
                acc1 = r1.Refs.access;
                acc2 = r2.Refs.access;
                answer = pair_test ~index:l.index r1 r2 })
        refs)
    refs

let conformable (l1 : loop) (l2 : loop) =
  let rename e =
    Bw_ir.Ast_util.subst_scalar ~name:l2.index ~value:(Scalar l1.index) e
  in
  equal_expr l1.lo (rename l2.lo)
  && equal_expr l1.hi (rename l2.hi)
  && equal_expr l1.step (rename l2.step)

let constant_bounds (l : loop) =
  match (Affine.of_expr l.lo, Affine.of_expr l.hi, Affine.of_expr l.step) with
  | Some lo, Some hi, Some step
    when Affine.is_const lo && Affine.is_const hi && Affine.is_const step ->
    Some (lo.Affine.const, hi.Affine.const, step.Affine.const)
  | _ -> None

(* Is every read of scalar [s] preceded by a write on the same
   straight-line path?  Conservative over conditionals: both branches must
   independently establish the write before any read escapes. *)
let scalar_private body s =
  (* returns (safe_so_far, definitely_written_after) *)
  let rec seq written stmts =
    List.fold_left
      (fun (safe, written) stmt ->
        if not safe then (false, written)
        else step written stmt)
      (true, written) stmts
  and step written stmt =
    match stmt with
    | Assign (lv, e) ->
      let reads = Bw_ir.Ast_util.expr_reads e in
      let lv_reads =
        match lv with
        | Lscalar _ -> []
        | Lelement (_, idxs) ->
          List.concat_map Bw_ir.Ast_util.expr_reads idxs
      in
      if (mem_name s reads || mem_name s lv_reads) && not written then
        (false, written)
      else
        let written = written || lvalue_name lv = s in
        (true, written)
    | Read_input lv ->
      let lv_reads =
        match lv with
        | Lscalar _ -> []
        | Lelement (_, idxs) ->
          List.concat_map Bw_ir.Ast_util.expr_reads idxs
      in
      if mem_name s lv_reads && not written then (false, written)
      else (true, written || lvalue_name lv = s)
    | Print e ->
      if mem_name s (Bw_ir.Ast_util.expr_reads e) && not written then
        (false, written)
      else (true, written)
    | If (c, t, e) ->
      let cond_reads =
        let rec go = function
          | Cmp (_, a, b) ->
            Bw_ir.Ast_util.expr_reads a @ Bw_ir.Ast_util.expr_reads b
          | And (a, b) | Or (a, b) -> go a @ go b
          | Not a -> go a
        in
        go c
      in
      if mem_name s cond_reads && not written then (false, written)
      else begin
        let safe_t, written_t = seq written t in
        let safe_e, written_e = seq written e in
        (safe_t && safe_e, written_t && written_e)
      end
    | For l ->
      (* a nested loop body executes many times; require the property
         recursively with the outer "written" state, and treat the loop
         as writing only if its body always writes *)
      if (mem_name s (Bw_ir.Ast_util.expr_reads l.lo)
          || mem_name s (Bw_ir.Ast_util.expr_reads l.hi)
          || mem_name s (Bw_ir.Ast_util.expr_reads l.step))
         && not written
      then (false, written)
      else begin
        let safe, written_body = seq written l.body in
        (* if the body reads s before writing it, only safe when already
           written; across iterations the scalar persists, so a body that
           writes s then reads it is fine. *)
        (safe, written && written_body)
      end
  in
  let safe, _ = seq false body in
  safe

let scalars_of_stmts stmts ~non_scalar =
  let scalar v = not (Names.mem non_scalar v) in
  ( List.filter scalar (Bw_ir.Ast_util.vars_read stmts),
    List.filter scalar (Bw_ir.Ast_util.vars_written stmts) )

let consumes_input stmts =
  Bw_ir.Ast_util.fold_stmts
    (fun acc s -> acc || match s with Read_input _ -> true | _ -> false)
    false stmts

let fusable (l1 : loop) (l2 : loop) =
  let ( let* ) r f = Result.bind r f in
  (* bounds *)
  let* () =
    if conformable l1 l2 then Ok ()
    else
      match (constant_bounds l1, constant_bounds l2) with
      | Some (_, _, s1), Some (_, _, s2) when s1 = s2 -> Ok ()
      | Some _, Some _ -> Error "loop steps differ"
      | _ -> Error "loop bounds are neither conformable nor constant"
  in
  (* the read() stream is a sequential resource: fusing two loops that
     both consume it interleaves their stream positions *)
  let* () =
    if consumes_input l1.body && consumes_input l2.body then
      Error "both loops consume the input stream"
    else Ok ()
  in
  let body2 =
    Bw_ir.Ast_util.rename_scalar ~from:l2.index ~into:l1.index l2.body
  in
  let refs1 = Refs.collect l1.body in
  let refs2 = Refs.collect body2 in
  (* array dependences: each reference of the first loop against the
     same-array references of the second, in their textual order, so the
     first offending pair is the one a walk of every pair would meet *)
  let by_array = Names.create 16 in
  List.iter
    (fun (r2 : Refs.t) ->
      let bucket =
        Option.value ~default:[] (Names.find_opt by_array r2.Refs.array)
      in
      Names.replace by_array r2.Refs.array (r2 :: bucket))
    (List.rev refs2);
  let bad =
    List.find_map
      (fun (r1 : Refs.t) ->
        List.find_map
          (fun (r2 : Refs.t) ->
            if r1.Refs.access = Refs.Read && r2.Refs.access = Refs.Read
            then None
            else
              match pair_test ~index:l1.index r1 r2 with
              | Independent -> None
              | Dependent (Some d) when d >= 0 -> None
              | Dependent (Some d) ->
                Some
                  (Printf.sprintf
                     "array '%s': backward dependence (distance %d)"
                     r1.Refs.array d)
              | Dependent None ->
                Some
                  (Printf.sprintf "array '%s': unconstrained dependence"
                     r1.Refs.array)
              | Unknown ->
                Some
                  (Printf.sprintf "array '%s': dependence unknown"
                     r1.Refs.array))
          (Option.value ~default:[] (Names.find_opt by_array r1.Refs.array)))
      refs1
  in
  let* () = match bad with None -> Ok () | Some reason -> Error reason in
  (* scalar dependences *)
  let non_scalar = Names.create 16 in
  let add v = Names.replace non_scalar v () in
  List.iter (fun (r : Refs.t) -> add r.Refs.array) refs1;
  Names.iter (fun a _ -> add a) by_array;
  add l1.index;
  List.iter add (Bw_ir.Ast_util.loop_indices l1.body);
  List.iter add (Bw_ir.Ast_util.loop_indices body2);
  let reads1, writes1 = scalars_of_stmts l1.body ~non_scalar in
  let reads2, writes2 = scalars_of_stmts body2 ~non_scalar in
  let offending =
    List.find_opt
      (fun s ->
        let flow = mem_name s writes1 && mem_name s reads2 in
        let anti = mem_name s reads1 && mem_name s writes2 in
        let output = mem_name s writes1 && mem_name s writes2 in
        if flow || output then not (scalar_private body2 s)
        else if anti then not (scalar_private body2 s)
        else false)
      (List.sort_uniq String.compare (reads1 @ writes1 @ reads2 @ writes2))
  in
  match offending with
  | None -> Ok ()
  | Some s -> Error (Printf.sprintf "scalar '%s' carried between loops" s)
