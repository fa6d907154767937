open Bw_ir

type violation =
  | Live_out_store_dropped of string
  | Live_out_decl_dropped of string
  | Print_count_changed of int * int
  | Backward_dependence of {
      array : string;
      acc1 : Refs.access;
      acc2 : Refs.access;
      distance : int;
    }

let pp_access ppf = function
  | Refs.Read -> Format.pp_print_string ppf "read"
  | Refs.Write -> Format.pp_print_string ppf "write"

let pp_violation ppf = function
  | Live_out_store_dropped v ->
    Format.fprintf ppf "live-out '%s' was stored to before but not after" v
  | Live_out_decl_dropped v ->
    Format.fprintf ppf "live-out '%s' is no longer declared" v
  | Print_count_changed (b, a) ->
    Format.fprintf ppf "print statements changed from %d to %d" b a
  | Backward_dependence { array; acc1; acc2; distance } ->
    Format.fprintf ppf
      "array '%s': new backward %a-%a dependence (distance %d)" array
      pp_access acc1 pp_access acc2 distance

(* Every loop in the statements, any nesting depth, pre-order. *)
let rec loops_of stmts =
  List.concat_map
    (fun s ->
      match s with
      | Ast.For l -> l :: loops_of l.Ast.body
      | Ast.If (_, t, e) -> loops_of t @ loops_of e
      | Ast.Assign _ | Ast.Read_input _ | Ast.Print _ -> [])
    stmts

let print_count stmts =
  Ast_util.fold_stmts
    (fun n s -> match s with Ast.Print _ -> n + 1 | _ -> n)
    0 stmts

(* Dependence signatures of a program: for every loop, every textually
   ordered same-array pair with a known distance.  The signature is
   index-name independent, so a fused loop "inherits" both source loops'
   signatures and only genuinely new pairs stand out. *)
let signatures (p : Ast.program) =
  loops_of p.Ast.body
  |> List.concat_map (fun l ->
         Depend.loop_pairs l
         |> List.filter_map (fun (pi : Depend.pair_info) ->
                match pi.Depend.answer with
                | Depend.Dependent (Some d) ->
                  Some (pi.Depend.array, pi.Depend.acc1, pi.Depend.acc2, d)
                | Depend.Independent | Depend.Dependent None | Depend.Unknown
                  ->
                  None))
  |> List.sort_uniq compare

let lint ~(before : Ast.program) ~(after : Ast.program) =
  let live_out_violations =
    let written_before = Ast_util.vars_written before.Ast.body in
    let written_after = Ast_util.vars_written after.Ast.body in
    List.concat_map
      (fun v ->
        if Ast.find_decl after v = None then [ Live_out_decl_dropped v ]
        else if
          Ast_util.mem_name v written_before
          && not (Ast_util.mem_name v written_after)
        then [ Live_out_store_dropped v ]
        else [])
      before.Ast.live_out
  in
  let print_violations =
    let b = print_count before.Ast.body and a = print_count after.Ast.body in
    if b <> a then [ Print_count_changed (b, a) ] else []
  in
  let dependence_violations =
    let known = signatures before in
    signatures after
    |> List.filter_map (fun ((array, acc1, acc2, d) as sg) ->
           if d < 0 && not (List.mem sg known) then
             Some (Backward_dependence { array; acc1; acc2; distance = d })
           else None)
  in
  live_out_violations @ print_violations @ dependence_violations

let lint_ok ~before ~after = lint ~before ~after = []

let pp_violations ppf = function
  | [] -> Format.pp_print_string ppf "no violations"
  | vs ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
      pp_violation ppf vs
