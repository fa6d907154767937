(* Versioned JSON wire protocol of the bwc serve daemon.  See
   protocol.mli for the framing and envelope contract. *)

module Json = Bw_core.Json

let version = 1

type op =
  | Ping
  | Metrics
  | Analyze
  | Predict
  | Optimize
  | Simulate
  | Fuzz
  | Shutdown

let op_names =
  [ ("ping", Ping);
    ("metrics", Metrics);
    ("analyze", Analyze);
    ("predict", Predict);
    ("optimize", Optimize);
    ("simulate", Simulate);
    ("fuzz", Fuzz);
    ("shutdown", Shutdown) ]

let op_name op = fst (List.find (fun (_, o) -> o = op) op_names)

let op_of_name s = List.assoc_opt s op_names

type pipeline = { validate : int; lint : bool; fuel : int option }

let default_pipeline = { validate = 0; lint = false; fuel = None }

let guard_config { validate; lint; fuel } =
  { Bw_transform.Guard.default_config with
    Bw_transform.Guard.validate; lint; fuel }

type request = {
  id : string option;
  op : op;
  program : string option;
  source : string option;
  scale : int;
  machines : string list;
  engine : [ `Compiled | `Interpreted ];
  budget : [ `Analytic | `Reuse | `Exact ];
  pipeline : pipeline;
  seed : int;
  count : int;
  size : int;
  no_cache : bool;
  deadline_ms : int option;
}

let default_request op =
  { id = None;
    op;
    program = None;
    source = None;
    scale = 1;
    machines = [ "origin2000" ];
    engine = `Compiled;
    budget = `Exact;
    pipeline = default_pipeline;
    seed = 1;
    count = 10;
    size = 4;
    no_cache = false;
    deadline_ms = None }

(* --- machine resolution ---------------------------------------------------- *)

let resolve_machines req =
  let rec go = function
    | [] -> Ok []
    | name :: rest ->
      Result.bind (Bw_core.Loader.machine name) (fun m ->
          Result.map (fun ms -> m :: ms) (go rest))
  in
  match req.machines with [] -> Error "empty machine list" | ms -> go ms

(* --- request decoding ------------------------------------------------------ *)

(* One-line failures in the Bw_core.Loader style: every malformed field
   is an [Error msg], never an exception — the daemon turns these into
   structured error responses and keeps serving. *)

let engine_of_name = function
  | "compiled" -> Ok `Compiled
  | "interpreted" -> Ok `Interpreted
  | s -> Error (Printf.sprintf "unknown engine '%s' (compiled, interpreted)" s)

let engine_name = function `Compiled -> "compiled" | `Interpreted -> "interpreted"

let budget_of_name = function
  | "analytic" -> Ok `Analytic
  | "reuse" -> Ok `Reuse
  | "exact" -> Ok `Exact
  | s -> Error (Printf.sprintf "unknown budget '%s' (analytic, reuse, exact)" s)

let budget_name = function
  | `Analytic -> "analytic"
  | `Reuse -> "reuse"
  | `Exact -> "exact"

let evaluate_budget = function
  | `Analytic -> Bw_exec.Evaluate.Microseconds
  | `Reuse -> Bw_exec.Evaluate.Milliseconds
  | `Exact -> Bw_exec.Evaluate.Unbounded

let ( let* ) = Result.bind

let field_string name json =
  match Json.member name json with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field '%s' must be a string" name)

let field_int name ~default json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field '%s' must be an integer" name)

let field_bool name ~default json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field '%s' must be a boolean" name)

let field_string_list name ~default json =
  match Json.member name json with
  | None -> Ok default
  | Some (Json.List items) ->
    let rec go = function
      | [] -> Ok []
      | Json.String s :: rest -> Result.map (fun ss -> s :: ss) (go rest)
      | _ ->
        Error (Printf.sprintf "field '%s' must be a list of strings" name)
    in
    go items
  | Some _ -> Error (Printf.sprintf "field '%s' must be a list of strings" name)

let pipeline_of_json json =
  match Json.member "pipeline" json with
  | None -> Ok default_pipeline
  | Some p ->
    let* validate = field_int "validate" ~default:0 p in
    let* lint = field_bool "lint" ~default:false p in
    let* fuel =
      match Json.member "fuel" p with
      | None | Some Json.Null -> Ok None
      | Some (Json.Int i) -> Ok (Some i)
      | Some _ -> Error "field 'fuel' must be an integer or null"
    in
    let pipeline = { validate; lint; fuel } in
    let* _ = Bw_transform.Guard.check_config (guard_config pipeline) in
    Ok pipeline

let request_of_json json =
  match json with
  | Json.Obj _ -> (
    let* v = field_int "v" ~default:version json in
    if v <> version then
      Error (Printf.sprintf "unsupported protocol version %d (this is v%d)" v version)
    else
      let* op_str = field_string "op" json in
      match op_str with
      | None -> Error "missing required field 'op'"
      | Some op_str -> (
        match op_of_name op_str with
        | None ->
          Error
            (Printf.sprintf "unknown op '%s' (known: %s)" op_str
               (String.concat ", " (List.map fst op_names)))
        | Some op ->
          let d = default_request op in
          let* id = field_string "id" json in
          let* program = field_string "program" json in
          let* source = field_string "source" json in
          let* scale = field_int "scale" ~default:d.scale json in
          let* scale = Bw_workloads.Registry.check_scale scale in
          let* machines = field_string_list "machines" ~default:d.machines json in
          let* engine_s = field_string "engine" json in
          let* engine =
            match engine_s with
            | None -> Ok d.engine
            | Some s -> engine_of_name s
          in
          let* budget_s = field_string "budget" json in
          let* budget =
            match budget_s with None -> Ok d.budget | Some s -> budget_of_name s
          in
          let* pipeline = pipeline_of_json json in
          let* seed = field_int "seed" ~default:d.seed json in
          let* count = field_int "count" ~default:d.count json in
          let* size = field_int "size" ~default:d.size json in
          let* no_cache = field_bool "no_cache" ~default:false json in
          let* deadline_ms =
            match Json.member "deadline_ms" json with
            | None | Some Json.Null -> Ok None
            | Some (Json.Int i) ->
              if i > 0 then Ok (Some i)
              else Error "field 'deadline_ms' must be > 0"
            | Some _ -> Error "field 'deadline_ms' must be an integer"
          in
          if count < 1 then Error "field 'count' must be >= 1"
          else if size < 1 then Error "field 'size' must be >= 1"
          else
            Ok
              { id; op; program; source; scale; machines; engine; budget;
                pipeline; seed; count; size; no_cache; deadline_ms }))
  | _ -> Error "request must be a JSON object"

let request_of_string line =
  match Json.parse line with
  | json -> request_of_json json
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)

let json_of_request r =
  let opt name = function
    | None -> []
    | Some s -> [ (name, Json.String s) ]
  in
  Json.Obj
    ([ ("v", Json.Int version); ("op", Json.String (op_name r.op)) ]
    @ opt "id" r.id @ opt "program" r.program @ opt "source" r.source
    @ [ ("scale", Json.Int r.scale);
        ("machines", Json.List (List.map (fun m -> Json.String m) r.machines));
        ("engine", Json.String (engine_name r.engine));
        ("budget", Json.String (budget_name r.budget));
        ( "pipeline",
          Json.Obj
            [ ("validate", Json.Int r.pipeline.validate);
              ("lint", Json.Bool r.pipeline.lint);
              ( "fuel",
                match r.pipeline.fuel with
                | None -> Json.Null
                | Some f -> Json.Int f ) ] );
        ("seed", Json.Int r.seed);
        ("count", Json.Int r.count);
        ("size", Json.Int r.size) ]
    @ (if r.no_cache then [ ("no_cache", Json.Bool true) ] else [])
    @
    match r.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Int ms) ])

(* --- responses ------------------------------------------------------------- *)

let ok_response ?id ?degraded ~op ~cached result =
  Json.Obj
    ([ ("v", Json.Int version) ]
    @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
    @ [ ("op", Json.String (op_name op));
        ("status", Json.String "ok");
        ("cached", Json.Bool cached) ]
    @ (match degraded with
      | None -> []
      | Some fidelity ->
        [ ("degraded", Json.Bool true); ("fidelity", Json.String fidelity) ])
    @ [ ("result", result) ])

let error_response ?id ?code ?retry_after_ms msg =
  Json.Obj
    ([ ("v", Json.Int version) ]
    @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
    @ [ ("status", Json.String "error"); ("error", Json.String msg) ]
    @ (match code with
      | None -> []
      | Some c -> [ ("code", Json.String c) ])
    @
    match retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", Json.Int ms) ])

let response_result json =
  match Json.member "status" json with
  | Some (Json.String "ok") -> (
    match Json.member "result" json with
    | Some r -> Ok r
    | None -> Error "ok response without 'result'")
  | Some (Json.String "error") -> (
    match Json.member "error" json with
    | Some (Json.String msg) -> Error msg
    | _ -> Error "error response without 'error'")
  | _ -> Error "response without 'status'"

let response_cached json =
  match Json.member "cached" json with Some (Json.Bool b) -> b | _ -> false

let response_degraded json =
  match Json.member "degraded" json with Some (Json.Bool b) -> b | _ -> false

let response_error_code json =
  match Json.member "code" json with Some (Json.String c) -> Some c | _ -> None

let response_retry_after_ms json =
  match Json.member "retry_after_ms" json with
  | Some (Json.Int ms) -> Some ms
  | _ -> None

(* Everything whose answer is content-addressed (or answerless, like
   ping/metrics) can be resent without changing server state; only
   shutdown carries one-shot intent. *)
let idempotent req = req.op <> Shutdown

let degradable = function
  | Analyze | Predict -> true
  | Ping | Metrics | Optimize | Simulate | Fuzz | Shutdown -> false

(* --- cache keys ------------------------------------------------------------ *)

(* Content-addressed: the program component is the canonical IR digest
   (Bw_ir.Digest), so two requests naming the same computation share a
   key however the program was spelled, while every knob that changes
   the answer — op, machine list, engine, budget, pipeline config, fuzz
   parameters — is spelled into the key with unambiguous separators, so
   distinct configurations can never collide. *)

let pipeline_key p =
  Printf.sprintf "v%d:l%c:f%s" p.validate
    (if p.lint then '1' else '0')
    (match p.fuel with None -> "-" | Some f -> string_of_int f)

let cache_key req ~program =
  match req.op with
  | Ping | Metrics | Shutdown -> None
  | Fuzz ->
    Some
      (Printf.sprintf "v%d|fuzz|seed=%d|count=%d|size=%d" version req.seed
         req.count req.size)
  | Analyze | Predict | Optimize | Simulate ->
    let digest =
      match program with
      | Some p -> Bw_ir.Digest.program p
      | None -> "-"
    in
    Some
      (Printf.sprintf "v%d|%s|prog=%s|machines=%s|engine=%s|budget=%s|pipe=%s"
         version (op_name req.op) digest
         (String.concat "," req.machines)
         (engine_name req.engine) (budget_name req.budget)
         (pipeline_key req.pipeline))

(* Key of the shared capture (program execution) behind simulate
   requests: machine-independent, so requests that differ only in
   machine list share one engine run. *)
let capture_key req ~program =
  Printf.sprintf "capture|prog=%s|engine=%s" (Bw_ir.Digest.program program)
    (engine_name req.engine)

let needs_program req =
  match req.op with
  | Analyze | Predict | Optimize | Simulate -> true
  | Ping | Metrics | Shutdown | Fuzz -> false

let load_program req =
  match (req.program, req.source) with
  | Some _, Some _ -> Error "give either 'program' or 'source', not both"
  | Some name, None -> Bw_core.Loader.load_program ~scale:req.scale name
  | None, Some src -> (
    (* position-tracking front end: errors render as LINE:COL: message *)
    match Bw_lang.Parse.parse_program src with
    | Ok p -> Ok p
    | Error e -> Error (Bw_lang.Parse.error_to_string e)
    | exception e -> Error (Printexc.to_string e))
  | None, None ->
    Error
      (Printf.sprintf "op '%s' needs a 'program' (registry name) or 'source'"
         (op_name req.op))
