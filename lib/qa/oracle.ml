open Bw_ir

let site = "qa.pipeline"

let () =
  Bw_obs.Fault.declare site
    ~doc:
      "QA pipeline wrapper: Raise aborts the optimization, Corrupt drops \
       every store to a live-out variable from the optimized program"

(* The QA-specific corruption: delete every assignment/read targeting a
   live-out variable, at any nesting depth.  Unlike Guard's off-by-one
   corruption this is visible to *both* halves of the QA subsystem: the
   differential oracle sees changed final values, and the static linter
   sees dropped live-out stores. *)
let drop_live_out_stores (p : Ast.program) =
  let live name = List.mem name p.Ast.live_out in
  let dropped = ref false in
  let rec keep s =
    match s with
    | Ast.Assign (lv, _) | Ast.Read_input lv ->
      if live (Ast.lvalue_name lv) then begin
        dropped := true;
        None
      end
      else Some s
    | Ast.If (c, th, el) ->
      Some (Ast.If (c, List.filter_map keep th, List.filter_map keep el))
    | Ast.For l ->
      Some (Ast.For { l with Ast.body = List.filter_map keep l.Ast.body })
    | Ast.Print _ -> Some s
  in
  let body = List.filter_map keep p.Ast.body in
  if !dropped then Some { p with Ast.body } else None

(* Run the real guarded pipeline, then cross the [qa.pipeline] fault
   site so CI and tests can simulate a silently miscompiling optimizer
   end-to-end. *)
let transform (p : Ast.program) =
  let p', _report, _events = Bw_transform.Strategy.run_guarded p in
  match Bw_obs.Fault.check site with
  | Some Bw_obs.Fault.Raise -> raise (Bw_obs.Fault.Injected site)
  | Some Bw_obs.Fault.Corrupt -> (
    match drop_live_out_stores p' with
    | Some bad -> bad
    (* nothing stores to a live-out variable: the corruption is a no-op
       (raising here would let the minimizer collapse a reproducer into
       a degenerate empty program that "fails" for the wrong reason) *)
    | None -> p')
  | Some (Bw_obs.Fault.Delay ms) ->
    Bw_obs.Fault.sleep_ms ms;
    p'
  | None -> p'

let programs_total = Bw_obs.Metrics.counter "qa.fuzz.programs"
let failures_total = Bw_obs.Metrics.counter "qa.fuzz.failures"

let test ?(trials = 2) (p : Ast.program) =
  Bw_obs.Metrics.incr programs_total;
  let span =
    Bw_obs.Trace.start ~cat:"qa"
      ~attrs:[ ("program", Bw_obs.Trace.Str p.Ast.prog_name) ]
      "qa:oracle"
  in
  let result =
    match Check.check p with
    | Error es ->
      Error
        (Format.asprintf "generated program fails Check.check: %a"
           (Format.pp_print_list Check.pp_error)
           es)
    | Ok () -> (
      match transform p with
      | exception e ->
        Error (Printf.sprintf "optimizer raised: %s" (Printexc.to_string e))
      | p' ->
        Bw_transform.Guard.validate_pair ~trials ~before:p ~after:p' ())
  in
  (match result with Ok () -> () | Error _ -> Bw_obs.Metrics.incr failures_total);
  Bw_obs.Trace.finish
    ~attrs:
      [ ("verdict",
         Bw_obs.Trace.Str
           (match result with Ok () -> "ok" | Error _ -> "fail")) ]
    span;
  result

let fails p = match test p with Ok () -> false | Error _ -> true

let fuzz ~before ~seed ~count ~size =
  let rec go k =
    if k >= count then (k, None)
    else begin
      before ();
      let p = Gen.generate ~seed:(seed + k) ~size in
      match test p with
      | Ok () -> go (k + 1)
      | Error msg -> (k + 1, Some (seed + k, p, msg))
    end
  in
  go 0
