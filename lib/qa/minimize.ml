open Bw_ir

type stats = { rounds : int; candidates : int; kept : int }

(* --- candidate enumeration -------------------------------------------- *)

(* All programs obtained by deleting exactly one statement, at any
   nesting depth.  Smaller deletions first would be nice, but greedy
   first-improvement over this list already converges fast. *)
let drop_one_stmt (p : Ast.program) =
  let out = ref [] in
  (* [go body k] calls [k smaller_body] for every one-statement deletion
     (recursively) inside [body]. *)
  let rec go body k =
    List.iteri
      (fun idx s ->
        (* delete statement [idx] outright *)
        k (List.filteri (fun j _ -> j <> idx) body);
        (* or delete inside it *)
        let replace s' = k (List.mapi (fun j x -> if j = idx then s' else x) body) in
        match s with
        | Ast.For l -> go l.Ast.body (fun b -> replace (Ast.For { l with Ast.body = b }))
        | Ast.If (c, th, el) ->
          go th (fun b -> replace (Ast.If (c, b, el)));
          go el (fun b -> replace (Ast.If (c, th, b)))
        | Ast.Assign _ | Ast.Read_input _ | Ast.Print _ -> ())
      body
  in
  go p.Ast.body (fun body -> out := { p with Ast.body } :: !out);
  List.rev !out

(* Halve the span of every constant-bound loop, one loop at a time. *)
let shrink_bounds (p : Ast.program) =
  let out = ref [] in
  let rec go body k =
    List.iteri
      (fun idx s ->
        let replace s' = k (List.mapi (fun j x -> if j = idx then s' else x) body) in
        match s with
        | Ast.For l ->
          (match (l.Ast.lo, l.Ast.hi) with
          | Ast.Int_lit lo, Ast.Int_lit hi when hi - lo >= 2 ->
            let hi' = lo + ((hi - lo) / 2) in
            replace (Ast.For { l with Ast.hi = Ast.Int_lit hi' })
          | _ -> ());
          go l.Ast.body (fun b -> replace (Ast.For { l with Ast.body = b }))
        | Ast.If (c, th, el) ->
          go th (fun b -> replace (Ast.If (c, b, el)));
          go el (fun b -> replace (Ast.If (c, th, b)))
        | Ast.Assign _ | Ast.Read_input _ | Ast.Print _ -> ())
      body
  in
  go p.Ast.body (fun body -> out := { p with Ast.body } :: !out);
  List.rev !out

(* Drop declarations no remaining statement mentions (and the matching
   live_out entries), as a single candidate. *)
let prune_decls (p : Ast.program) =
  let used =
    Ast_util.vars_read p.Ast.body @ Ast_util.vars_written p.Ast.body
  in
  let keep (d : Ast.decl) = List.mem d.Ast.var_name used in
  let decls = List.filter keep p.Ast.decls in
  if List.length decls = List.length p.Ast.decls then []
  else
    let names = List.map (fun (d : Ast.decl) -> d.Ast.var_name) decls in
    let live_out = List.filter (fun n -> List.mem n names) p.Ast.live_out in
    [ { p with Ast.decls; live_out } ]

(* Shrinking live_out one element at a time often unlocks further
   statement deletions (stores to the removed name become dead). *)
let shrink_live_out (p : Ast.program) =
  if List.length p.Ast.live_out <= 1 then []
  else
    List.mapi
      (fun idx _ ->
        { p with
          Ast.live_out = List.filteri (fun j _ -> j <> idx) p.Ast.live_out })
      p.Ast.live_out

let candidates p =
  drop_one_stmt p @ shrink_bounds p @ shrink_live_out p @ prune_decls p

(* --- the ddmin-style greedy loop -------------------------------------- *)

let size (p : Ast.program) =
  Ast_util.stmt_count p.Ast.body + List.length p.Ast.decls

let minimize ~still_fails (p : Ast.program) =
  let tried = ref 0 and kept = ref 0 and rounds = ref 0 in
  let ok c = Result.is_ok (Check.check c) in
  let rec fixpoint p =
    incr rounds;
    let rec first = function
      | [] -> None
      | c :: rest ->
        if !tried >= 2000 then None
        else begin
          incr tried;
          if size c < size p && ok c && still_fails c then begin
            incr kept;
            Some c
          end
          else first rest
        end
    in
    match first (candidates p) with
    | Some smaller -> fixpoint smaller
    | None -> p
  in
  let p' = fixpoint p in
  (p', { rounds = !rounds; candidates = !tried; kept = !kept })
