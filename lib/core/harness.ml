type status = Ok | Error of string

type outcome = {
  id : string;
  title : string;
  body : string;
  seconds : float;
  status : status;
}

let ok o = o.status = Ok
let all_ok outcomes = List.for_all ok outcomes

let default_jobs () = Bw_exec.Pool.default_jobs ()

(* Fault-injection sites: "harness.table.<id>" fires inside one table's
   rendering (confined to that table's outcome); "harness.worker" fires
   in the worker loop between claiming an index and rendering it,
   killing the whole domain — which is exactly the claimed-but-
   unfinished case the post-join retry sweep exists for. *)
let () =
  Bw_obs.Fault.declare
    ~doc:"per-table failure while rendering table <id> (harness.table.fig3 etc.)"
    "harness.table.<id>";
  Bw_obs.Fault.declare
    ~doc:"kill a worker domain after it claims a table index"
    "harness.worker"

let declare_fault_sites () = ()

(* One exception message, first line only — table errors render into
   reports and JSON, and backtraces belong to neither. *)
let error_message e =
  let s = Printexc.to_string e in
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Render one table; exceptions propagate (callers choose confinement). *)
let render_raw ~scale (id, table_fn) =
  (* Tables report wall-clock columns (fig5 ms, fuse-search search time);
     start each from a compacted heap so a table's timings don't inherit
     the garbage of whichever tables happened to run before it. *)
  Gc.compact ();
  let span =
    Bw_obs.Trace.start ~cat:"table"
      ~attrs:[ ("id", Bw_obs.Trace.Str id) ]
      ("table:" ^ id)
  in
  let t0 = Unix.gettimeofday () in
  match
    Bw_obs.Fault.cut ("harness.table." ^ id);
    table_fn ?scale:(Some scale) ()
  with
  | table ->
    let body = Table.to_string table in
    let seconds = Unix.gettimeofday () -. t0 in
    Bw_obs.Trace.finish
      ~attrs:[ ("seconds", Bw_obs.Trace.Float seconds) ]
      span;
    { id; title = table.Table.title; body; seconds; status = Ok }
  | exception e ->
    let seconds = Unix.gettimeofday () -. t0 in
    Bw_obs.Trace.finish
      ~attrs:
        [ ("seconds", Bw_obs.Trace.Float seconds);
          ("error", Bw_obs.Trace.Str (error_message e)) ]
      span;
    raise e

(* A raising table thunk is that table's problem only: catch everything
   into an [Error] outcome so sibling tables render regardless. *)
let render_protected ~scale ((id, _) as exp) =
  match render_raw ~scale exp with
  | o -> o
  | exception e ->
    Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "harness.table_errors");
    { id;
      title = "";
      body = "";
      seconds = 0.0;
      status = Error (error_message e) }

let run ?jobs ?(scale = 1) experiments =
  let n = List.length experiments in
  let jobs =
    match jobs with Some j -> max 1 j | None -> min (default_jobs ()) n
  in
  if jobs <= 1 || n <= 1 then List.map (render_protected ~scale) experiments
  else begin
    (* Fan out over the shared work-stealing pool (Bw_exec.Pool — the
       same machinery multi-machine trace replay uses): a slow table
       (fig5 dominates) doesn't serialise the rest, and results come
       back in input order. *)
    let inputs = Array.of_list experiments in
    (* A slot a dead domain claimed but never finished: retry on the
       (surviving) calling domain, up to 2 times, before recording an
       error. *)
    let rec retry i attempts =
      Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "harness.retries");
      match render_raw ~scale inputs.(i) with
      | o -> o
      | exception e ->
        if attempts < 2 then retry i (attempts + 1)
        else begin
          Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "harness.table_errors");
          { id = fst inputs.(i);
            title = "";
            body = "";
            seconds = 0.0;
            status = Error (error_message e) }
        end
    in
    Bw_exec.Pool.map ~jobs
      ~on_claim:(fun _ -> Bw_obs.Fault.cut "harness.worker")
      ~retry:(fun i _ -> retry i 1)
      (render_protected ~scale) inputs
    |> Array.to_list
  end

let json_of_results ?trace ?serve ~scale ~jobs ~micro outcomes =
  let base =
    [
      (* v5: the "serve" block gained per-outcome counts
         (ok/degraded/rejected/shed/failed/retried) and an "outcomes"
         object of per-class latency percentiles *)
      ("schema_version", Json.Int 5);
      ("scale", Json.Int scale);
      ("jobs", Json.Int jobs);
      ( "tables",
        Json.List
          (List.map
             (fun o ->
               let fields =
                 [
                   ("id", Json.String o.id);
                   ("title", Json.String o.title);
                   ("body", Json.String o.body);
                   ("seconds", Json.Float o.seconds);
                   ( "status",
                     Json.String
                       (match o.status with Ok -> "ok" | Error _ -> "error") );
                 ]
               in
               let error_field =
                 match o.status with
                 | Ok -> []
                 | Error msg -> [ ("error", Json.String msg) ]
               in
               Json.Obj (fields @ error_field))
             outcomes) );
      ( "micro",
        Json.List
          (List.map
             (fun (name, ns) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("ns_per_run", Json.Float ns);
                 ])
             micro) );
    ]
  in
  let trace_field =
    match trace with
    | None | Some [] -> []
    | Some spans -> [ ("trace", Trace_export.json_of_spans spans) ]
  in
  let serve_field =
    match serve with None -> [] | Some j -> [ ("serve", j) ]
  in
  Json.Obj (base @ serve_field @ trace_field)
