open Bw_ir.Ast

(* Can any read of [a] inside loop [l] observe a value stored by a write
   inside [l]?  [refs] are [Refs.collect [ For l ]]. *)
let stored_value_read (l : loop) refs a =
  let mine = Bw_analysis.Refs.of_array a refs in
  let writes = Bw_analysis.Refs.writes mine in
  let reads = Bw_analysis.Refs.reads mine in
  List.exists
    (fun (w : Bw_analysis.Refs.t) ->
      List.exists
        (fun (r : Bw_analysis.Refs.t) ->
          match Bw_analysis.Depend.pair_test ~index:l.index w r with
          | Bw_analysis.Depend.Independent -> false
          | Bw_analysis.Depend.Dependent (Some d) ->
            d > 0
            || d = 0
               && (r.Bw_analysis.Refs.position > w.Bw_analysis.Refs.position
                  || not
                       (Bw_analysis.Refs.revisit_free w ~under:l.index
                       && Bw_analysis.Refs.revisit_free r ~under:l.index))
          | Bw_analysis.Depend.Dependent None | Bw_analysis.Depend.Unknown ->
            true)
        reads)
    writes

let written_by_read_input stmts a =
  Bw_ir.Ast_util.fold_stmts
    (fun acc s ->
      acc
      ||
      match s with
      | Read_input lv -> lvalue_name lv = a
      | Assign _ | Print _ | If _ | For _ -> false)
    false stmts

let remove_stores_to a stmts =
  let rec filter stmts =
    List.filter_map
      (fun s ->
        match s with
        | Assign (Lelement (a', _), _) when a' = a -> None
        | If (c, t, e) -> Some (If (c, filter t, filter e))
        | For l -> Some (For { l with body = filter l.body })
        | Assign _ | Read_input _ | Print _ -> Some s)
      stmts
  in
  filter stmts

let eliminate_dead_stores (p : program) =
  let ranges = Bw_analysis.Live.analyse p in
  let eliminated = ref [] in
  let body =
    List.mapi
      (fun pos stmt ->
        match stmt with
        | For l ->
          let refs = Bw_analysis.Refs.collect [ stmt ] in
          let arrays_written =
            Bw_analysis.Refs.writes refs
            |> List.map (fun (r : Bw_analysis.Refs.t) -> r.Bw_analysis.Refs.array)
            |> List.sort_uniq String.compare
            |> List.filter (fun a ->
                   match find_decl p a with
                   | Some d -> is_array d
                   | None -> false)
          in
          let removable =
            List.filter
              (fun a ->
                Bw_analysis.Live.dead_after ranges ~position:pos a
                && (not (stored_value_read l refs a))
                && not (written_by_read_input [ stmt ] a))
              arrays_written
          in
          if removable = [] then stmt
          else begin
            eliminated := !eliminated @ removable;
            let body =
              List.fold_left (fun b a -> remove_stores_to a b) l.body removable
            in
            For { l with body }
          end
        | Assign _ | Read_input _ | Print _ | If _ -> stmt)
      p.body
  in
  ({ p with body }, List.sort_uniq String.compare !eliminated)

let run p =
  let p, _ = Scalar_replace.forward_stores p in
  eliminate_dead_stores p
