type stage =
  | Fuse
  | Contract
  | Shrink
  | Forward
  | Store_elim
  | Contract_tidy
  | Layout

let default = [ Fuse; Contract; Shrink; Forward; Store_elim; Contract_tidy ]

let stage_name = function
  | Fuse -> "fuse"
  | Contract -> "contract"
  | Shrink -> "shrink"
  | Forward -> "forward"
  | Store_elim -> "store-elim"
  | Contract_tidy -> "contract-tidy"
  | Layout -> "layout"

type stage_report = {
  fused_loops : int;
  contracted : string list;
  shrink_plans : Shrink.plan list;
  stores_eliminated : string list;
  forwarded : int;
  layout : Layout.action list;
}

let empty_report =
  { fused_loops = 0;
    contracted = [];
    shrink_plans = [];
    stores_eliminated = [];
    forwarded = 0;
    layout = [] }

(* Every guarded stage has a fault-injection site, declared eagerly so
   `bwc faults` can list them before anything is armed: the "input"
   pseudo-stage, the fusion search that stands in for [Fuse], and every
   stage of the list. *)
let () =
  List.iter
    (fun n ->
      Bw_obs.Fault.declare
        ~doc:(Printf.sprintf "optimizer stage '%s' (raise or corrupt)" n)
        ("guard." ^ n))
    ("input" :: "fuse_search" :: List.map stage_name (default @ [ Layout ]))

(* Run one pass under observability: a "pass:<name>" span carrying the
   program's static statistics before and after (statement counts,
   distinct arrays, and the analytic tier's flops, bytes and register
   balance — see Ir_stats) and the words the pass allocated on the minor
   heap (alloc.minor_words), plus a pass.<name>.runs counter.  The
   statistics are only computed when tracing is enabled, so the
   untraced pipeline pays one atomic load and a counter bump per pass.
   They run inside the guarded stage, where an exception would roll the
   stage back, so they must not raise on any program a stage returns. *)
let alloc_since words =
  ( "alloc.minor_words",
    Bw_obs.Trace.Int (int_of_float (Gc.minor_words () -. words)) )

let pass name f p =
  Bw_obs.Metrics.incr (Bw_obs.Metrics.counter ("pass." ^ name ^ ".runs"));
  if not (Bw_obs.Trace.enabled ()) then f p
  else begin
    let h =
      Bw_obs.Trace.start ~cat:"pass"
        ~attrs:
          (("pass", Bw_obs.Trace.Str name)
          :: Ir_stats.span_attrs ~prefix:"before." (Ir_stats.of_program p))
        ("pass:" ^ name)
    in
    let words = Gc.minor_words () in
    match f p with
    | (p', _aux) as result ->
      let alloc = alloc_since words in
      Bw_obs.Trace.finish
        ~attrs:
          (alloc
          :: Ir_stats.span_attrs ~prefix:"after." (Ir_stats.of_program p'))
        h;
      result
    | exception e ->
      let alloc = alloc_since words in
      Bw_obs.Trace.finish
        ~attrs:[ alloc; ("error", Bw_obs.Trace.Str (Printexc.to_string e)) ]
        h;
      raise e
  end

let count name n = Bw_obs.Metrics.incr ~by:n (Bw_obs.Metrics.counter name)

(* A stage as its guard name and a transform whose auxiliary result adds
   the stage's contribution to the report.  A search engine, when
   supplied, replaces the greedy adjacent sweep and runs under its own
   name (fault site guard.fuse_search). *)
let step ~machine ~fuse_search stage =
  let adding f add =
    ( stage_name stage,
      fun p ->
        let p', x = f p in
        (p', fun r -> add r x) )
  in
  match stage with
  | Fuse ->
    let name, fuse =
      match fuse_search with
      | Some search -> ("fuse_search", search)
      | None -> ("fuse", Fuse.greedy)
    in
    let loops (q : Bw_ir.Ast.program) = List.length q.body in
    ( name,
      fun p ->
        let p' = fuse p in
        let n = loops p - loops p' in
        (p', fun r -> { r with fused_loops = r.fused_loops + n }) )
  | Contract | Contract_tidy ->
    adding Contract.contract_arrays (fun r l ->
        { r with contracted = r.contracted @ l })
  | Shrink ->
    adding Shrink.shrink_all (fun r l ->
        { r with shrink_plans = r.shrink_plans @ l })
  | Forward ->
    adding Scalar_replace.forward_stores (fun r n ->
        { r with forwarded = r.forwarded + n })
  | Store_elim ->
    adding Store_elim.eliminate_dead_stores (fun r l ->
        { r with stores_eliminated = r.stores_eliminated @ l })
  | Layout ->
    adding
      (fun p -> Layout.run ~machine p)
      (fun r l -> { r with layout = r.layout @ l })

let run_guarded ?(stages = default) ?(guard = Guard.default_config)
    ?(machine = Bw_machine.Machine.origin2000) ?fuse_search
    (p : Bw_ir.Ast.program) =
  Bw_obs.Trace.with_span ~cat:"optimizer"
    ("optimize:" ^ p.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let g = Guard.create guard in
  (* The "input" pseudo-stage re-checks the program we were handed (and,
     under validation, establishes that both engines agree on it) before
     any transform gets to run.  A program that fails here flows through
     untouched: every later stage would roll back against it anyway. *)
  let p, () = Guard.stage g ~name:"input" ~default:() (fun p -> (p, ())) p in
  let p, r =
    List.fold_left
      (fun (p, r) stage ->
        let name, f = step ~machine ~fuse_search stage in
        let p, add = Guard.stage g ~name ~default:Fun.id (pass name f) p in
        (p, add r))
      (p, empty_report) stages
  in
  count "pass.fuse.loops_fused" r.fused_loops;
  count "pass.contract.arrays" (List.length r.contracted);
  count "pass.shrink.plans" (List.length r.shrink_plans);
  count "pass.forward.sites" r.forwarded;
  count "pass.store-elim.stores" (List.length r.stores_eliminated);
  (p, r, Guard.events g)

let run ?stages ?machine ?fuse_search p =
  let p', report, _events = run_guarded ?stages ?machine ?fuse_search p in
  (p', report)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fused %d loop(s)@,contracted: %s@,shrunk: %s@,store-eliminated: %s@,forwarded %d site(s)@]"
    r.fused_loops
    (match r.contracted with [] -> "-" | l -> String.concat ", " l)
    (match r.shrink_plans with
    | [] -> "-"
    | l ->
      String.concat ", "
        (List.map (fun (pl : Shrink.plan) -> pl.Shrink.array) l))
    (match r.stores_eliminated with [] -> "-" | l -> String.concat ", " l)
    r.forwarded
