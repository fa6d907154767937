open Bw_ir

type failure =
  | Check_failed of string
  | Lint_failed of string
  | Validation_failed of string
  | Exception of string
  | Budget_exhausted of string

type verdict = Committed | Rolled_back of failure

type event = { stage : string; verdict : verdict }

type config = {
  validate : int;
  lint : bool;
  rollback : bool;
  fuel : int option;
}

let default_config =
  { validate = 0; lint = false; rollback = true; fuel = None }

let check_config c =
  if c.validate < 0 then
    Error (Printf.sprintf "validate must be >= 0 (got %d)" c.validate)
  else
    match c.fuel with
    | Some f when f < 0 -> Error (Printf.sprintf "fuel must be >= 0 (got %d)" f)
    | _ -> Ok c

exception Guard_failed of event list

type t = {
  cfg : config;
  mutable fuel_left : int option;
  mutable rev_events : event list;
}

let create cfg = { cfg; fuel_left = cfg.fuel; rev_events = [] }
let config t = t.cfg
let events t = List.rev t.rev_events

let rollbacks t =
  List.length
    (List.filter
       (fun e -> match e.verdict with Rolled_back _ -> true | _ -> false)
       t.rev_events)

let fuel_left t = t.fuel_left

(* --- fuel ------------------------------------------------------------- *)

exception Out_of_fuel of string

let charge t ~what n =
  match t.fuel_left with
  | None -> ()
  | Some left ->
    if left < n then
      raise
        (Out_of_fuel
           (Printf.sprintf "%s needs %d step(s), only %d left" what n left))
    else t.fuel_left <- Some (left - n)

(* --- corruption ------------------------------------------------------- *)

(* Offset the first assignment's RHS by one.  The result still
   type-checks (the offset literal matches the destination's declared
   type), but any live assignment now computes a different value — the
   kind of silent miscompilation differential validation exists to
   catch. *)
let corrupt_program (p : Ast.program) =
  let dtype_of name =
    match Ast.find_decl p name with
    | Some d -> d.Ast.dtype
    | None -> Ast.F64 (* unreachable on checked programs *)
  in
  let done_ = ref false in
  let rec corrupt_stmt s =
    if !done_ then s
    else
      match s with
      | Ast.Assign (lv, rhs) ->
        done_ := true;
        let bump =
          match dtype_of (Ast.lvalue_name lv) with
          | Ast.F64 -> Ast.Float_lit 1.0
          | Ast.I64 -> Ast.Int_lit 1
        in
        Ast.Assign (lv, Ast.Binary (Ast.Add, rhs, bump))
      | Ast.If (c, th, el) ->
        let th = List.map corrupt_stmt th in
        let el = List.map corrupt_stmt el in
        Ast.If (c, th, el)
      | Ast.For l -> Ast.For { l with Ast.body = List.map corrupt_stmt l.Ast.body }
      | (Ast.Read_input _ | Ast.Print _) as s -> s
  in
  let body = List.map corrupt_stmt p.Ast.body in
  if !done_ then Some { p with Ast.body } else None

(* --- differential validation ------------------------------------------ *)

let uses_input (p : Ast.program) =
  Ast_util.fold_stmts
    (fun acc s -> acc || match s with Ast.Read_input _ -> true | _ -> false)
    false p.Ast.body

(* Distinct but deterministic read() streams per trial. *)
let trial_offset k = k * 7919

let run_observation ~engine ~input_offset p =
  match engine with
  | `Interpreted -> Bw_exec.Interp.run ~input_offset p
  | `Compiled -> Bw_exec.Compile.run ~input_offset p

(* Absolute/relative float tolerance of every observation comparison. *)
let tolerance = 1e-9

let validate_programs ~trials ~before ~after ~charge_fuel =
  (* Programs without read() see identical inputs every trial, so one
     trial already covers them. *)
  let trials = if uses_input before then max 1 trials else 1 in
  let close = Bw_exec.Interp.close_observation ~tol:tolerance in
  let exec_or_err ~engine ~what ~input_offset p =
    match run_observation ~engine ~input_offset p with
    | o -> Ok o
    | exception Bw_exec.Interp.Runtime_error msg ->
      Error (Printf.sprintf "%s raised Runtime_error: %s" what msg)
    | exception Bw_exec.Compile.Runtime_error msg ->
      Error (Printf.sprintf "%s raised Runtime_error: %s" what msg)
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "%s rejected: %s" what msg)
  in
  let rec trial k =
    if k >= trials then Ok ()
    else begin
      charge_fuel ~trial:k;
      let input_offset = trial_offset k in
      let ( let* ) = Result.bind in
      let* oracle =
        exec_or_err ~engine:`Interpreted ~what:"input program (interp)"
          ~input_offset before
      in
      let* after_interp =
        exec_or_err ~engine:`Interpreted ~what:"transformed program (interp)"
          ~input_offset after
      in
      let* before_compiled =
        exec_or_err ~engine:`Compiled ~what:"input program (compiled)"
          ~input_offset before
      in
      let* after_compiled =
        exec_or_err ~engine:`Compiled ~what:"transformed program (compiled)"
          ~input_offset after
      in
      let mismatch who =
        Error
          (Printf.sprintf
             "trial %d (input offset %d): %s disagrees with the interpreted \
              input program"
             k input_offset who)
      in
      if not (close oracle after_interp) then mismatch "transformed (interp)"
      else if not (close oracle before_compiled) then mismatch "input (compiled)"
      else if not (close oracle after_compiled) then
        mismatch "transformed (compiled)"
      else trial (k + 1)
    end
  in
  trial 0

let validate_pair ?(trials = 1) ~before ~after () =
  validate_programs ~trials ~before ~after ~charge_fuel:(fun ~trial:_ -> ())

(* --- the transaction -------------------------------------------------- *)

let failure_kind = function
  | Check_failed _ -> "check_failures"
  | Lint_failed _ -> "lint_failures"
  | Validation_failed _ -> "validation_failures"
  | Exception _ -> "exceptions"
  | Budget_exhausted _ -> "budget_exhausted"

let failure_message = function
  | Check_failed m | Lint_failed m | Validation_failed m | Exception m
  | Budget_exhausted m ->
    m

let count stage name =
  Bw_obs.Metrics.incr
    (Bw_obs.Metrics.counter (Printf.sprintf "guard.%s.%s" stage name))

let record t ev =
  t.rev_events <- ev :: t.rev_events;
  (match ev.verdict with
  | Committed -> count ev.stage "commits"
  | Rolled_back f ->
    count ev.stage "rollbacks";
    count ev.stage (failure_kind f));
  ev

let render_check_errors es =
  String.concat "; "
    (List.map (fun e -> Format.asprintf "%a" Check.pp_error e) es)

let stage t ~name ~default f p =
  let site = "guard." ^ name in
  let span =
    Bw_obs.Trace.start ~cat:"guard"
      ~attrs:[ ("stage", Bw_obs.Trace.Str name) ]
      ("guard:" ^ name)
  in
  let stmts = Ast_util.stmt_count p.Ast.body in
  let outcome =
    try
      charge t ~what:(Printf.sprintf "stage %s" name) (max 1 stmts);
      let fault = Bw_obs.Fault.check site in
      (match fault with
      | Some Bw_obs.Fault.Raise -> raise (Bw_obs.Fault.Injected site)
      | _ -> ());
      let p', aux = f p in
      let p' =
        match fault with
        | Some Bw_obs.Fault.Corrupt -> (
          match corrupt_program p' with
          | Some bad -> bad
          | None -> raise (Bw_obs.Fault.Injected site))
        | _ -> p'
      in
      match Check.check p' with
      | Error es -> Error (Check_failed (render_check_errors es))
      | Ok () -> (
        match
          if not t.cfg.lint then []
          else Bw_analysis.Preserve.lint ~before:p ~after:p'
        with
        | _ :: _ as vs ->
          Error
            (Lint_failed
               (Format.asprintf "@[<h>%a@]"
                  (Format.pp_print_list
                     ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                     Bw_analysis.Preserve.pp_violation)
                  vs))
        | [] ->
          if t.cfg.validate <= 0 then Ok (p', aux)
        else begin
          let charge_fuel ~trial =
            charge t
              ~what:(Printf.sprintf "stage %s validation trial %d" name trial)
              (4 * max 1 stmts)
          in
          match
            validate_programs ~trials:t.cfg.validate ~before:p ~after:p'
              ~charge_fuel
          with
          | Ok () -> Ok (p', aux)
          | Error msg -> Error (Validation_failed msg)
        end)
    with
    | Out_of_fuel msg -> Error (Budget_exhausted msg)
    | e -> Error (Exception (Printexc.to_string e))
  in
  match outcome with
  | Ok (p', aux) ->
    ignore (record t { stage = name; verdict = Committed });
    Bw_obs.Trace.finish
      ~attrs:[ ("verdict", Bw_obs.Trace.Str "committed") ]
      span;
    (p', aux)
  | Error failure ->
    ignore (record t { stage = name; verdict = Rolled_back failure });
    Bw_obs.Trace.finish
      ~attrs:
        [ ("verdict", Bw_obs.Trace.Str "rolled_back");
          ("failure", Bw_obs.Trace.Str (failure_kind failure));
          ("detail", Bw_obs.Trace.Str (failure_message failure)) ]
      span;
    if t.cfg.rollback then (p, default) else raise (Guard_failed (events t))

(* --- reporting -------------------------------------------------------- *)

let pp_failure ppf = function
  | Check_failed m -> Format.fprintf ppf "IR check failed: %s" m
  | Lint_failed m -> Format.fprintf ppf "preservation lint failed: %s" m
  | Validation_failed m -> Format.fprintf ppf "validation failed: %s" m
  | Exception m -> Format.fprintf ppf "exception: %s" m
  | Budget_exhausted m -> Format.fprintf ppf "fuel exhausted: %s" m

let pp_event ppf { stage; verdict } =
  match verdict with
  | Committed -> Format.fprintf ppf "stage %-13s committed" stage
  | Rolled_back f ->
    Format.fprintf ppf "stage %-13s ROLLED BACK (%a)" stage pp_failure f

let pp_report ppf events =
  let rolled =
    List.length
      (List.filter
         (fun e -> match e.verdict with Rolled_back _ -> true | _ -> false)
         events)
  in
  Format.fprintf ppf "@[<v>%a@,guard: %d stage(s), %d committed, %d rolled back@]"
    (Format.pp_print_list pp_event)
    events
    (List.length events)
    (List.length events - rolled)
    rolled
