(* Benchmark harness: regenerate every table/figure of the paper's
   evaluation (the experiment drivers of Bw_core.Experiments) and print
   them.  Table generation fans out across domains (Bw_core.Harness) but
   the output order — and the table contents — match a serial run
   exactly.  Timings of the program's own paths, end to end and per
   layer, come from perfbench/ instead.

     dune exec bench/main.exe                 -- all tables, full scale
     dune exec bench/main.exe -- --quick      -- all tables, small scale
     dune exec bench/main.exe -- --table fig3 -- one table
     dune exec bench/main.exe -- --jobs 4     -- cap the worker domains
     dune exec bench/main.exe -- --json       -- also write BENCH_results.json
                                                 (per-table spans included)
     dune exec bench/main.exe -- --out F.json -- write the JSON to F.json *)

let default_json_path = "BENCH_results.json"

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "bench: %s@." msg;
      exit 1)
    fmt

let () =
  (* Deterministic fault injection for CI: BWC_FAULTS="site=raise@nth:1,..."
     arms sites like harness.table.fig3 before any table renders. *)
  (match Bw_obs.Fault.arm_from_env () with
  | Ok () -> ()
  | Error msg -> fail "bad BWC_FAULTS: %s" msg);
  let args = Array.to_list Sys.argv |> List.tl in
  (* Refuse what this driver does not know, so a mistyped or retired
     flag cannot silently start a full-scale run. *)
  let rec check = function
    | [] -> ()
    | ("--quick" | "--json") :: rest -> check rest
    | ("--table" | "--jobs" | "--out") :: _ :: rest -> check rest
    | [ ("--table" | "--jobs" | "--out") as f ] -> fail "%s needs a value" f
    | a :: _ ->
      fail "unknown argument %S (known: --quick, --table ID, --jobs N, \
            --json, --out FILE)" a
  in
  check args;
  let has flag = List.mem flag args in
  let value_of flag =
    let rec go = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let json = has "--json" || value_of "--out" <> None in
  let json_path = Option.value (value_of "--out") ~default:default_json_path in
  let scale = if has "--quick" then 1 else 2 in
  let only = value_of "--table" in
  let experiments =
    match only with
    | None -> Bw_core.Experiments.all
    | Some w -> List.filter (fun (id, _) -> id = w) Bw_core.Experiments.all
  in
  (match (only, experiments) with
  | Some w, [] ->
    Format.eprintf "no experiment named %S; known ids:@." w;
    List.iter (fun (id, _) -> Format.eprintf "  %s@." id) Bw_core.Experiments.all;
    exit 1
  | _ -> ());
  let jobs =
    match value_of "--jobs" with
    | Some j -> (
      match int_of_string_opt j with
      | Some j when j >= 1 -> j
      | _ ->
        Format.eprintf "--jobs expects a positive integer, got %S@." j;
        exit 1)
    | None -> min (Bw_core.Harness.default_jobs ()) (List.length experiments)
  in
  (* Per-table spans ride along in the JSON document; tracing stays off
     for plain text runs so the tables themselves are unperturbed. *)
  if json then begin
    Bw_obs.Trace.reset ();
    Bw_obs.Trace.set_enabled true
  end;
  let outcomes = Bw_core.Harness.run ~jobs ~scale experiments in
  Bw_obs.Trace.set_enabled false;
  List.iter
    (fun o ->
      match o.Bw_core.Harness.status with
      | Bw_core.Harness.Ok ->
        print_string o.Bw_core.Harness.body;
        Format.printf "(generated in %.1f s)@.@." o.Bw_core.Harness.seconds
      | Bw_core.Harness.Error _ -> ())
    outcomes;
  (* Partial results are still written (and still parse); the exit code
     and a one-line summary per failed table carry the bad news. *)
  if json then begin
    let trace = Bw_obs.Trace.collect () in
    let doc = Bw_core.Harness.json_of_results ~trace ~scale ~jobs outcomes in
    let oc = open_out json_path in
    output_string oc (Bw_core.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Format.printf "wrote %s (%d tables, %d spans)@." json_path
      (List.length outcomes) (List.length trace)
  end;
  let failed = List.filter (fun o -> not (Bw_core.Harness.ok o)) outcomes in
  List.iter
    (fun o ->
      match o.Bw_core.Harness.status with
      | Bw_core.Harness.Error msg ->
        Format.eprintf "bench: table %s failed: %s@." o.Bw_core.Harness.id msg
      | Bw_core.Harness.Ok -> ())
    failed;
  if failed <> [] then exit 1
