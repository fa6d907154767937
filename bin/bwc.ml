(* bwc — the bandwidth compiler driver.

   Subcommands:
     bwc list                      catalogue of built-in workloads
     bwc show <prog>               pretty-print a workload or .bw source file
     bwc parse <file>              parse a .bw file with line:column errors
                                   (--check: report only, print nothing)
     bwc fmt <file>                canonical formatting of a .bw file
                                   (--write rewrites in place; --check exits 1
                                   when the file is not canonical)
     bwc corpus [dir]              run the golden-file corpus: parse every
                                   *.bw, render its golden artifact and diff
                                   against the committed *.golden
                                   (--promote regenerates the goldens)
     bwc analyze <prog>            balance, predicted time, bottleneck
     bwc optimize <prog>           run the fusion/storage/store-elimination
                                   pipeline and report before/after: serve's
                                   optimize op (Bw_serve.Handle.optimized)
                                   printed as text
                                   (--trace FILE writes a Chrome trace of the
                                   op, one span per pass and per simulation;
                                   --layout follows with
                                   the data-layout pass; --validate[=N] checks
                                   each stage differentially on both engines;
                                   --no-rollback fails fast; --fuel N bounds
                                   the pipeline's step budget; --faults SPEC
                                   arms fault-injection sites)
     bwc profile <prog>            run the same op (pipeline, then simulation
                                   of input and output) under full
                                   span/metrics instrumentation
     bwc fuse <prog>               compare fusion plans and their costs
     bwc simulate <prog>|--registry
                                   capture a trace once, replay it on several
                                   machines in parallel (--machines a,b;
                                   --check verifies replay = direct simulate;
                                   --trace-store prints capture stats)
     bwc predict <prog>|--registry
                                   closed-form analytic prediction next to
                                   the exact simulator with per-cell error
                                   (--machines a,b; --check gates on the
                                   documented error envelope, exit 2)
     bwc fuzz                      differentially fuzz the optimizer pipeline
                                   (--seed/--count/--size drive Qa.Gen;
                                   --minimize delta-debugs the first failure
                                   and writes the reproducer to --out;
                                   --corpus DIR also records it as a golden
                                   corpus entry)
     bwc lint <prog>|--registry    statically check dependence preservation
                                   across the pipeline (Qa.Lint)
     bwc faults                    list the registered fault-injection sites
     bwc validate-json <file>      check a bench/trace JSON artifact parses

   Exit codes: 0 success; 1 usage, load or runtime error (reported as a
   one-line "bwc: ..." message, never a backtrace); 2 guard validation
   failure under optimize --no-rollback, a fuzz counterexample, or a
   lint violation.  Fault-injection sites can also be armed via the
   BWC_FAULTS environment variable (syntax: SITE=ACTION[@POLICY],
   comma-separated — see `bwc faults`). *)

open Cmdliner

let machine_names = String.concat ", " (List.map fst Bw_core.Loader.machines)

(* Printed by its catalogue key, the name --machine accepts back. *)
let machine_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Bw_core.Loader.machine s) in
  let print ppf (m : Bw_machine.Machine.t) =
    let name = m.Bw_machine.Machine.name in
    let key =
      List.find_map
        (fun (key, (m' : Bw_machine.Machine.t)) ->
          if m'.Bw_machine.Machine.name = name then Some key else None)
        Bw_core.Loader.machines
    in
    Format.pp_print_string ppf (Option.value key ~default:name)
  in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Bw_machine.Machine.origin2000
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:
          ("Machine model: " ^ machine_names
         ^ ".  The -rp variants place array pages at pseudo-random \
            physical addresses."))

let machines_arg ~default =
  Arg.(
    value
    & opt (list machine_conv) default
    & info [ "machines" ] ~docv:"M1,M2,..."
        ~doc:("Comma-separated machine models: " ^ machine_names ^ "."))

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record observability spans and write them to $(docv) as a \
           Chrome trace-event JSON document (open in chrome://tracing or \
           Perfetto).")

(* Resolve a program: registry name or path to a surface-language file.
   Total — every failure is an [Error] (see Bw_core.Loader). *)
let load_program = Bw_core.Loader.load_program

let program_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM" ~doc:"Workload name or .bw source file.")

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "bwc: %s@." msg;
    exit 1

(* Checked before any command runs: the builders would otherwise build
   the stress size for every scale but 1 and 2. *)
let scale_arg =
  Term.(
    const (fun s -> or_die (Bw_workloads.Registry.check_scale s))
    $ Arg.(
        value & opt int 1
        & info [ "s"; "scale" ] ~docv:"SCALE"
            ~doc:"Workload size: 1 quick, 2 full, 3 stress."))

(* PROGRAM or --registry, loaded at --scale: the (name, program) pairs
   that lint, simulate and predict run over. *)
let programs_arg ~cmd =
  let programs name registry scale =
    match (name, registry) with
    | None, false ->
      Format.eprintf "bwc: %s needs a PROGRAM argument or --registry@." cmd;
      exit 1
    | Some name, _ -> [ (name, or_die (load_program ~scale name)) ]
    | None, true ->
      List.map
        (fun (e : Bw_workloads.Registry.entry) ->
          (e.Bw_workloads.Registry.name, e.Bw_workloads.Registry.build ~scale))
        Bw_workloads.Registry.all
  in
  Term.(
    const programs
    $ Arg.(
        value
        & pos 0 (some string) None
        & info [] ~docv:"PROGRAM" ~doc:"Workload name or .bw source file.")
    $ Arg.(
        value & flag
        & info [ "registry" ]
            ~doc:"Run over every workload in the registry instead of PROGRAM.")
    $ scale_arg)

(* Arms the sites before the command runs; the term is whether
   --faults was given. *)
let faults_arg =
  let arm = function
    | None -> false
    | Some spec ->
      or_die
        (Result.map_error (( ^ ) "bad --faults: ") (Bw_obs.Fault.arm_spec spec));
      true
  in
  Term.(
    const arm
    $ Arg.(
        value
        & opt (some string) None
        & info [ "faults" ] ~docv:"SPEC"
            ~doc:
              "Arm fault-injection sites, e.g. \
               'guard.fuse=raise,guard.shrink=corrupt@nth:2' or \
               'qa.pipeline=corrupt@every:1' (same syntax as the BWC_FAULTS \
               environment variable; see $(b,bwc faults))."))

(* Write [spans] to [file] as a Chrome trace document.  Re-parsing what
   was written is a self-check that it is well-formed. *)
let write_trace file spans =
  let doc = Bw_core.Trace_export.json_of_spans spans in
  Bw_core.Trace_export.write_file file doc;
  ignore (Bw_core.Json.parse (Bw_core.Json.to_string doc));
  Format.printf "wrote %s (%d spans)@." file (List.length spans)

(* Run [f], tracing it into [file] when one is given. *)
let traced file f =
  match file with
  | None -> f ()
  | Some file ->
    Bw_obs.Trace.reset ();
    let v = Bw_obs.Trace.with_enabled true f in
    write_trace file (Bw_obs.Trace.collect ());
    v

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Bw_workloads.Registry.entry) ->
        Format.printf "%-16s %s@." e.Bw_workloads.Registry.name
          e.Bw_workloads.Registry.description)
      Bw_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in workloads")
    Term.(const run $ const ())

(* --- show ----------------------------------------------------------------- *)

let show_cmd =
  let run name scale =
    let p = or_die (load_program ~scale name) in
    Format.printf "%a@." Bw_ir.Pretty.pp_program p
  in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print a program")
    Term.(const run $ program_arg $ scale_arg)

(* --- parse / fmt ----------------------------------------------------------- *)

let bw_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:".bw source file.")

let check_flag ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let parse_cmd =
  let run file check =
    let p = or_die (Bw_lang.Parse.parse_file file) in
    if not check then Format.printf "%a@." Bw_ir.Pretty.pp_program p
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse a .bw source file with the position-tracking front end and \
          print its canonical form.  Every diagnostic is one line, \
          FILE:LINE:COL: message, exit code 1.")
    Term.(
      const run $ bw_file_arg
      $ check_flag ~doc:"Only check the file; print nothing on success.")

let fmt_cmd =
  let run file check write =
    let p = or_die (Bw_lang.Parse.parse_file file) in
    let canonical = Bw_ir.Pretty.program_to_string p in
    let current =
      match Bw_core.Loader.read_file file with
      | Ok s -> s
      | Error msg -> or_die (Error msg)
    in
    if check then begin
      if String.trim current <> String.trim canonical then begin
        Format.eprintf "bwc: %s is not canonically formatted@." file;
        exit 1
      end
    end
    else if write then begin
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc canonical)
    end
    else print_string canonical
  in
  let write_flag =
    Arg.(value & flag & info [ "w"; "write" ] ~doc:"Rewrite the file in place.")
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:
         "Canonically format a .bw source file (the same rendering the \
          pretty-printer round-trips through the parser).")
    Term.(
      const run $ bw_file_arg
      $ check_flag ~doc:"Exit 1 if the file differs from its canonical form."
      $ write_flag)

(* --- corpus ---------------------------------------------------------------- *)

let corpus_cmd =
  let run dir promote filter =
    let entries =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".bw")
      |> List.filter (fun f ->
             match filter with
             | None -> true
             | Some sub ->
               let rec has i =
                 i + String.length sub <= String.length f
                 && (String.sub f i (String.length sub) = sub || has (i + 1))
               in
               has 0)
      |> List.sort compare
    in
    if entries = [] then begin
      Format.eprintf "bwc: no .bw files under %s@." dir;
      exit 1
    end;
    let failures = ref 0 and promoted = ref 0 in
    List.iter
      (fun f ->
        let bw = Filename.concat dir f in
        let golden = Bw_lang.Golden.golden_path bw in
        match Bw_lang.Parse.parse_file bw with
        | Error msg ->
          incr failures;
          Format.printf "FAIL %s: %s@." bw msg
        | Ok p ->
          let want = Bw_lang.Golden.render p in
          let got =
            if Sys.file_exists golden then Bw_core.Loader.read_file golden
            else Error "missing golden"
          in
          if promote then begin
            match got with
            | Ok g when g = want -> Format.printf "ok   %s@." bw
            | _ ->
              let oc = open_out golden in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc want);
              incr promoted;
              Format.printf "new  %s@." golden
          end
          else begin
            match got with
            | Error msg ->
              incr failures;
              Format.printf "FAIL %s: %s (run bwc corpus --promote)@." bw msg
            | Ok g when g = want -> Format.printf "ok   %s@." bw
            | Ok g ->
              incr failures;
              (match Bw_lang.Golden.first_diff g want with
              | Some (n, committed, fresh) ->
                Format.printf
                  "FAIL %s: golden drift at %s:%d@.  committed: %s@.  \
                   rendered:  %s@."
                  bw golden n committed fresh
              | None -> Format.printf "FAIL %s: golden drift@." bw)
          end)
      entries;
    if promote then
      Format.printf "corpus: %d entr%s, %d golden(s) rewritten@."
        (List.length entries)
        (if List.length entries = 1 then "y" else "ies")
        !promoted
    else
      Format.printf "corpus: %d entr%s, %d failure(s)@." (List.length entries)
        (if List.length entries = 1 then "y" else "ies")
        !failures;
    if !failures > 0 then exit 1
  in
  let dir_arg =
    Arg.(
      value & pos 0 dir "corpus"
      & info [] ~docv:"DIR" ~doc:"Corpus directory (default ./corpus).")
  in
  let promote_flag =
    Arg.(
      value & flag
      & info [ "promote" ]
          ~doc:
            "Regenerate every stale or missing .golden from the current \
             toolchain instead of failing; rendering is deterministic, so \
             an unchanged toolchain rewrites nothing.")
  in
  let filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTRING"
          ~doc:"Only run corpus entries whose file name contains $(docv).")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Golden-file harness over the .bw corpus: parse each source, \
          render its parse/check/analysis artifact and compare against the \
          committed golden, reporting the first drifting line.  Exit 1 on \
          any drift, parse failure or missing golden.")
    Term.(const run $ dir_arg $ promote_flag $ filter_arg)

(* --- analyze -------------------------------------------------------------- *)

let analyze machine p =
  let r = Bw_exec.Run.simulate ~machine p in
  let row = Bw_core.Balance.of_result r in
  let print_row (row : Bw_core.Balance.row) =
    List.iter
      (fun (name, v) -> Format.printf "  %-8s %8.2f@." name v)
      row.Bw_core.Balance.per_boundary
  in
  Format.printf "program: %s@." p.Bw_ir.Ast.prog_name;
  Format.printf "machine: %s@.@." machine.Bw_machine.Machine.name;
  Format.printf "counters: %a@.@." Bw_machine.Counters.pp r.Bw_exec.Run.counters;
  Format.printf "program balance (bytes/flop):@.";
  print_row row;
  Format.printf "@.machine balance (bytes/flop):@.";
  print_row (Bw_core.Balance.of_machine machine);
  let resource, ratio = Bw_core.Balance.worst_ratio row machine in
  Format.printf
    "@.demand/supply: worst at %s (%.1fx) -> CPU utilisation bound %.0f%%@."
    resource ratio
    (100.0 *. Bw_core.Balance.cpu_utilisation_bound row machine);
  Format.printf "@.predicted time:@.%a@." Bw_machine.Timing.pp_breakdown
    r.Bw_exec.Run.breakdown;
  Format.printf "effective memory bandwidth: %.0f MB/s@."
    (Bw_exec.Run.effective_bandwidth r /. 1e6)

let analyze_cmd =
  let run name scale machine = analyze machine (or_die (load_program ~scale name)) in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Balance and predicted performance of a program")
    Term.(const run $ program_arg $ scale_arg $ machine_arg)

(* --- optimize --------------------------------------------------------------- *)

let optimize_cmd =
  let run name scale machine print_program layout trace_out validate lint
      no_rollback fuel faults fuse_search search_seed =
    let guard =
      or_die
        (Bw_transform.Guard.check_config
           { Bw_transform.Guard.validate = Option.value validate ~default:0;
             lint;
             rollback = not no_rollback;
             fuel })
    in
    let p = or_die (load_program ~scale name) in
    let search =
      Option.map
        (fun s ->
          match Bw_fusion.Search.engine_of_string s with
          | Some engine ->
            Bw_fusion.Search.default_config ~engine ~machine ~seed:search_seed
              ()
          | None ->
            Format.eprintf
              "bwc: unknown fuse-search engine '%s' (anneal, exact)@." s;
            exit 1)
        fuse_search
    in
    let stages =
      Bw_transform.Strategy.(if layout then default @ [ Layout ] else default)
    in
    let o =
      try
        traced trace_out (fun () ->
            Bw_serve.Handle.optimized ~engine:`Compiled ~stages ~guard ?search
              ~machine p)
      with Bw_transform.Guard.Guard_failed events ->
        (* fail-fast mode: the guard report is the diagnosis *)
        Format.eprintf "bwc: optimization aborted by the guard:@.%a@."
          Bw_transform.Guard.pp_report events;
        exit 2
    in
    (* a rolled-back layout stage prints no line: the guard report says
       why *)
    let layout_committed : Bw_transform.Guard.event =
      { stage = Bw_transform.Strategy.(stage_name Layout); verdict = Committed }
    in
    if List.mem layout_committed o.events then
      List.iter (Format.printf "layout: %s@.")
        (match o.report.Bw_transform.Strategy.layout with
        | [] -> [ "no profitable rewrite" ]
        | actions -> List.map Bw_transform.Layout.action_to_string actions);
    (match o.search with
    | None -> ()
    | Some (Error msg) -> Format.eprintf "fuse-search failed: %s@." msg
    | Some (Ok st) ->
      let open Bw_fusion.Search in
      Format.printf "%a@." pp_stats st;
      let win =
        if st.greedy_traffic > 0.0 then
          100.0 *. (st.greedy_traffic -. st.traffic) /. st.greedy_traffic
        else 0.0
      in
      Format.printf "fuse-search: greedy %.2f MB, %s %.2f MB, %s greedy by %.1f%%@."
        (st.greedy_traffic /. 1e6)
        (engine_to_string st.engine)
        (st.traffic /. 1e6)
        (if win >= 0.0 then "beats" else "trails")
        (Float.abs win);
      if not st.accepted then
        Format.printf "fuse-search: declined (no predicted win over the input)@.");
    Format.printf "%a@.@." Bw_transform.Strategy.pp_report o.report;
    let rolled_back =
      List.exists
        (fun e -> e.Bw_transform.Guard.verdict <> Bw_transform.Guard.Committed)
        o.events
    in
    if validate <> None || lint || no_rollback || fuel <> None || faults
       || rolled_back
    then Format.printf "%a@.@." Bw_transform.Guard.pp_report o.events;
    let seconds_before = Bw_exec.Run.seconds o.before in
    let seconds_after = Bw_exec.Run.seconds o.after in
    Format.printf "memory traffic: %.2f MB -> %.2f MB@."
      (Bw_serve.Handle.memory_mb o.before)
      (Bw_serve.Handle.memory_mb o.after);
    Format.printf "predicted time: %.2f ms -> %.2f ms (%.2fx)@."
      (1e3 *. seconds_before) (1e3 *. seconds_after)
      (seconds_before /. seconds_after);
    let same =
      Bw_exec.Interp.equal_observation o.before.Bw_exec.Run.observation
        o.after.Bw_exec.Run.observation
    in
    Format.printf "observable behaviour preserved: %b@." same;
    if print_program then Format.printf "@.%a@." Bw_ir.Pretty.pp_program o.output
  in
  let print_flag =
    Arg.(value & flag & info [ "p"; "print" ] ~doc:"Print the transformed program.")
  in
  let layout_flag =
    Arg.(
      value & flag
      & info [ "layout" ]
          ~doc:
            "After the loop stages, run the data-layout pass \
             (interleaving, AoS-to-SoA splitting, read-only transposition) \
             as the pipeline's last guarded stage, keeping only rewrites \
             the analytic evaluator prices as a memory-traffic win on \
             $(b,--machine).")
  in
  let validate_arg =
    Arg.(
      value
      & opt ~vopt:(Some 1) (some int) None
      & info [ "validate" ] ~docv:"TRIALS"
          ~doc:
            "Differentially validate every optimizer stage: run its input \
             and output programs on both execution engines over $(docv) \
             deterministic input sets (default 1) and roll the stage back \
             on any disagreement.")
  in
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Statically lint every optimizer stage with the \
             dependence-preservation checker (dropped live-out stores, \
             changed print counts, new backward dependences) and roll the \
             stage back on any violation.")
  in
  let no_rollback_flag =
    Arg.(
      value & flag
      & info [ "no-rollback" ]
          ~doc:
            "Fail fast: abort with exit code 2 and a guard report on the \
             first stage failure instead of rolling back and continuing.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Bound the pipeline's step budget: each stage charges its \
             statement count (validation trials charge four executions \
             each); a stage that cannot pay is rolled back.")
  in
  let fuse_search_arg =
    Arg.(
      value
      & opt ~vopt:(Some "anneal") (some string) None
      & info [ "fuse-search" ] ~docv:"ENGINE"
          ~doc:
            "Replace the greedy adjacent-fusion sweep with the k-way fusion \
             search: $(docv) is anneal (seeded randomized-restart \
             annealing from the sweep's plan, the default when the flag \
             is given bare) or exact (set-partition DP, small programs \
             only).  The winning plan runs in its own guarded stage and \
             is kept only when the analytic predictor prices it no worse \
             than the input; the predicted traffic of the sweep (greedy) \
             and of the search is reported either way.")
  in
  let search_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "search-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the annealing engine's private random state (the \
             search is deterministic for a fixed seed).")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the bandwidth-reduction pipeline and compare")
    Term.(
      const run $ program_arg $ scale_arg $ machine_arg $ print_flag
      $ layout_flag $ trace_arg $ validate_arg $ lint_flag $ no_rollback_flag
      $ fuel_arg $ faults_arg $ fuse_search_arg $ search_seed_arg)

(* --- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let run name scale machine trace_out =
    let p = or_die (load_program ~scale name) in
    Bw_obs.Trace.reset ();
    Bw_obs.Metrics.reset ();
    Bw_obs.Trace.set_enabled true;
    let root =
      Bw_obs.Trace.start ~cat:"profile"
        ~attrs:
          [ ("machine", Bw_obs.Trace.Str machine.Bw_machine.Machine.name);
            ("scale", Bw_obs.Trace.Int scale) ]
        ("profile:" ^ p.Bw_ir.Ast.prog_name)
    in
    let o = Bw_serve.Handle.optimized ~engine:`Compiled ~machine p in
    Bw_obs.Trace.finish root;
    Bw_obs.Trace.set_enabled false;
    let spans = Bw_obs.Trace.collect () in
    Format.printf "== optimizer ==@.%a@.@." Bw_transform.Strategy.pp_report
      o.report;
    let seconds_before = Bw_exec.Run.seconds o.before in
    let seconds_after = Bw_exec.Run.seconds o.after in
    Format.printf
      "memory traffic: %.2f MB -> %.2f MB; predicted time %.2f ms -> %.2f ms \
       (%.2fx)@.@."
      (Bw_serve.Handle.memory_mb o.before)
      (Bw_serve.Handle.memory_mb o.after)
      (1e3 *. seconds_before) (1e3 *. seconds_after)
      (seconds_before /. seconds_after);
    Format.printf "== spans ==@.%a@.@." Bw_core.Trace_export.pp_span_tree spans;
    Format.printf "== metrics ==@.%a@." Bw_obs.Metrics.pp_snapshot
      (Bw_obs.Metrics.snapshot ());
    Option.iter
      (fun file ->
        Format.printf "@.";
        write_trace file spans)
      trace_out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Optimize a program, then simulate its input and its output, under \
          full observability: per-pass spans, cache/engine/fusion metrics, \
          and an optional Chrome trace")
    Term.(const run $ program_arg $ scale_arg $ machine_arg $ trace_arg)

(* --- validate-json --------------------------------------------------------- *)

let validate_json_cmd =
  let run file =
    if not (Sys.file_exists file) then begin
      Format.eprintf "bwc: '%s' does not exist@." file;
      exit 1
    end;
    let ic = open_in_bin file in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Bw_core.Json.parse src with
    | _ -> Format.printf "%s: valid JSON (%d bytes)@." file (String.length src)
    | exception Bw_core.Json.Parse_error msg ->
      Format.eprintf "bwc: %s: invalid JSON: %s@." file msg;
      exit 1
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSON artifact to validate.")
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:
         "Check that a bench/trace JSON artifact parses with the \
          harness's JSON reader (used by CI)")
    Term.(const run $ file_arg)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run seed count size minimize out corpus trace_out (_ : bool) =
    if count < 1 then begin
      Format.eprintf "bwc: --count must be >= 1@.";
      exit 1
    end;
    match
      traced trace_out (fun () ->
          snd (Bw_qa.Oracle.fuzz ~before:ignore ~seed ~count ~size))
    with
    | None ->
      Format.printf "fuzz: %d program(s) ok (seeds %d..%d, size %d)@." count
        seed (seed + count - 1) size
    | Some (bad_seed, p, msg) ->
      Format.eprintf "bwc: fuzz counterexample at seed %d: %s@." bad_seed msg;
      let repro =
        if not minimize then p
        else begin
          let small, st =
            Bw_qa.Minimize.minimize ~still_fails:Bw_qa.Oracle.fails p
          in
          Format.eprintf
            "minimized: %d -> %d statement(s) (%d round(s), %d candidate(s), \
             %d kept)@."
            (Bw_ir.Ast_util.stmt_count p.Bw_ir.Ast.body)
            (Bw_ir.Ast_util.stmt_count small.Bw_ir.Ast.body)
            st.Bw_qa.Minimize.rounds st.Bw_qa.Minimize.candidates
            st.Bw_qa.Minimize.kept;
          small
        end
      in
      let write path s =
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s)
      in
      write out (Bw_ir.Pretty.program_to_string repro);
      Format.eprintf "wrote reproducer to %s@." out;
      (match corpus with
      | None -> ()
      | Some dir ->
        (* keep the reproducer as a permanent corpus entry: canonical
           source plus its golden, so the regression is pinned by the
           golden harness from now on *)
        let bw = Filename.concat dir (Printf.sprintf "fuzz_%d.bw" bad_seed) in
        write bw (Bw_ir.Pretty.program_to_string repro);
        write (Bw_lang.Golden.golden_path bw) (Bw_lang.Golden.render repro);
        Format.eprintf "added corpus entry %s (and its .golden)@." bw);
      exit 2
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Base RNG seed (program $(i,k) uses seed+k).")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate and test.")
  in
  let size_arg =
    Arg.(
      value & opt int 6
      & info [ "size" ] ~docv:"N"
          ~doc:"Top-level statements per generated program.")
  in
  let minimize_flag =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Delta-debug the first counterexample before writing it.")
  in
  let out_arg =
    Arg.(
      value & opt string "qa-repro.bw"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Where to write the (pretty-printed) counterexample program.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Also emit the (minimized) counterexample as a corpus entry: \
             $(docv)/fuzz_<seed>.bw plus its rendered .golden, ready to \
             commit so the golden harness pins the regression.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing of the optimizer: generate seeded random \
          programs, optimize each through the guarded pipeline, and compare \
          original vs optimized on both execution engines over deterministic \
          inputs.  Exits 0 when every program agrees; exits 2 on the first \
          counterexample, written to --out (minimized when --minimize).")
    Term.(
      const run $ seed_arg $ count_arg $ size_arg $ minimize_flag $ out_arg
      $ corpus_arg $ trace_arg $ faults_arg)

(* --- lint ------------------------------------------------------------------- *)

let lint_cmd =
  let run (_ : bool) programs =
    let reports =
      List.map (fun (_, p) -> Bw_qa.Lint.check_program p) programs
    in
    List.iter (fun r -> Format.printf "%a@." Bw_qa.Lint.pp_report r) reports;
    let bad = List.filter (fun r -> not (Bw_qa.Lint.ok r)) reports in
    if bad <> [] then begin
      Format.eprintf "bwc: %d program(s) violate dependence preservation@."
        (List.length bad);
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run a program (or the whole registry with --registry) through the \
          optimizer pipeline and statically verify dependence preservation: \
          live-out stores kept, print counts unchanged, no new backward \
          dependences.  Exits 2 on any violation.")
    Term.(const run $ faults_arg $ programs_arg ~cmd:"lint")

(* --- faults ----------------------------------------------------------------- *)

let faults_cmd =
  let run () =
    (* force registration of sites living in modules this command does
       not otherwise touch *)
    Bw_core.Harness.declare_fault_sites ();
    ignore Bw_transform.Strategy.default;
    ignore Bw_qa.Oracle.site;
    let armed = Bw_obs.Fault.armed () in
    List.iter
      (fun (name, doc) ->
        let mark =
          match List.assoc_opt name armed with
          | Some spec -> Printf.sprintf "  [armed: %s]" spec
          | None -> ""
        in
        Format.printf "%-24s %s%s@." name doc mark)
      (Bw_obs.Fault.sites ())
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "List the registered fault-injection sites.  Arm them with \
          BWC_FAULTS or optimize --faults using \
          SITE=ACTION[@POLICY][,...] where ACTION is raise|corrupt and \
          POLICY is nth:N, every:N or prob:P:SEED (default nth:1).")
    Term.(const run $ const ())

(* --- fuse ------------------------------------------------------------------- *)

let fuse_cmd =
  let run name scale =
    let p = or_die (load_program ~scale name) in
    let g = Bw_fusion.Fusion_graph.build p in
    Format.printf "%a@.@." Bw_fusion.Fusion_graph.pp g;
    let report label plan =
      Format.printf "%-28s arrays loaded %2d, cross weight %2d, %d partition(s)@."
        label
        (Bw_fusion.Cost.bandwidth_cost g plan)
        (Bw_fusion.Cost.edge_weight_cost g plan)
        (List.length plan)
    in
    report "no fusion:" (Bw_fusion.Cost.unfused g);
    report "edge-weighted greedy:" (Bw_fusion.Edge_weighted.greedy_merge g);
    report "bandwidth-minimal:" (Bw_fusion.Bandwidth_minimal.multi_partition g);
    if Bw_fusion.Fusion_graph.node_count g <= 10 then
      report "exhaustive optimum:" (Bw_fusion.Bandwidth_minimal.exhaustive g)
  in
  Cmd.v (Cmd.info "fuse" ~doc:"Compare fusion strategies on a program")
    Term.(const run $ program_arg $ scale_arg)

(* --- advise --------------------------------------------------------------- *)

let advise_cmd =
  let run name scale machine =
    let p = or_die (load_program ~scale name) in
    let report = Bw_core.Advisor.diagnose ~machine p in
    Format.printf "%a@." Bw_core.Advisor.pp_report report
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Suggest bandwidth-reducing transformations, ranked by measured saving")
    Term.(const run $ program_arg $ scale_arg $ machine_arg)

(* --- reuse ----------------------------------------------------------------- *)

let reuse_cmd =
  let run name scale granularity =
    let p = or_die (load_program ~scale name) in
    let t = Bw_exec.Run.reuse_profile ~granularity p in
    Format.printf
      "reuse profile of %s (block = %d bytes): %d accesses, %d blocks, %d cold@.@."
      p.Bw_ir.Ast.prog_name granularity
      (Bw_machine.Reuse.total t)
      (Bw_machine.Reuse.footprint_blocks t)
      (Bw_machine.Reuse.cold t);
    Format.printf "reuse-distance histogram (blocks):@.";
    List.iter
      (fun (lo, count) -> Format.printf "  >= %-8d %d@." lo count)
      (Bw_machine.Reuse.histogram t);
    Format.printf "@.predicted miss ratio vs fully-associative LRU size:@.";
    List.iter
      (fun (size, mr) ->
        Format.printf "  %8d KB  %5.1f%%@." (size / 1024) (100.0 *. mr))
      (Bw_machine.Reuse.curve t
         ~sizes:
           [ 1024; 4 * 1024; 16 * 1024; 64 * 1024; 256 * 1024;
             1024 * 1024; 4 * 1024 * 1024 ])
  in
  let granularity =
    Arg.(
      value & opt int 32
      & info [ "g"; "granularity" ] ~docv:"BYTES"
          ~doc:"Block size for reuse tracking (cache line).")
  in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:"Reuse-distance profile and cache-size-independent miss-ratio curve")
    Term.(const run $ program_arg $ scale_arg $ granularity)

(* --- simulate ----------------------------------------------------------------- *)

let simulate_cmd =
  let run programs machines engine check stats =
    let mismatches = ref 0 in
    List.iter
      (fun (name, p) ->
        let c = Bw_exec.Run.capture ~engine p in
        let results = Bw_exec.Run.replay_many ~machines c in
        Format.printf "%s:@." name;
        if stats then begin
          let s = c.Bw_exec.Run.store in
          let bpr = Bw_machine.Trace_store.bytes_per_record s in
          Format.printf
            "  trace store: %d records in %d bytes (%.2f bytes/record, \
             %.1fx smaller than flat), %d chunk(s)@."
            (Bw_machine.Trace_store.records s)
            (Bw_machine.Trace_store.encoded_bytes s)
            bpr
            (if bpr > 0.0 then 24.0 /. bpr else 0.0)
            (Bw_machine.Trace_store.chunks s)
        end;
        List.iter2
          (fun machine r ->
            let suffix =
              if not check then ""
              else if
                Bw_exec.Run.equal_result r
                  (Bw_exec.Run.simulate ~engine ~machine p)
              then "  replay = direct"
              else begin
                incr mismatches;
                "  REPLAY MISMATCH"
              end
            in
            Format.printf "  %-28s %10.2f ms  %8.0f MB/s%s@."
              machine.Bw_machine.Machine.name
              (1e3 *. Bw_exec.Run.seconds r)
              (Bw_exec.Run.effective_bandwidth r /. 1e6)
              suffix)
          machines results)
      programs;
    if !mismatches > 0 then begin
      Format.eprintf "bwc: %d replay/direct mismatch(es)@." !mismatches;
      exit 2
    end
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("compiled", `Compiled); ("interpreted", `Interpreted) ])
          `Compiled
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Execution engine for the capture: compiled or interpreted.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "trace-store" ]
          ~doc:
            "Print capture statistics: record count, encoded size, bytes \
             per record and chunk count.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Capture a program's memory-reference trace once and replay it \
          against several machine models in parallel; results are \
          bit-identical to per-machine direct simulation (verifiable with \
          --check)")
    Term.(
      const run $ programs_arg ~cmd:"simulate"
      $ machines_arg ~default:Bw_machine.Machine.[ origin2000; exemplar ]
      $ engine_arg
      $ check_flag
          ~doc:
            "Also run a direct per-machine simulation and verify the replay \
             is bit-identical (exit 2 on any mismatch)."
      $ stats_flag)

(* --- predict ----------------------------------------------------------------- *)

let predict_cmd =
  let run programs machines check =
    let rows =
      List.concat_map
        (fun (name, p) -> Bw_core.Accuracy.measure_program ~machines ~name p)
        programs
    in
    print_string (Bw_core.Table.to_string (Bw_core.Accuracy.table rows));
    if check then begin
      match Bw_core.Accuracy.check rows with
      | [] ->
        Format.printf "envelope: ok (%d cell(s) within documented bounds)@."
          (List.length rows)
      | violations ->
        List.iter (Format.eprintf "bwc: envelope violation: %s@.") violations;
        exit 2
    end
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Closed-form analytic prediction (no execution) next to the exact \
          simulator, with per-cell relative error")
    Term.(
      const run $ programs_arg ~cmd:"predict"
      $ machines_arg ~default:Bw_core.Accuracy.default_machines
      $ check_flag
          ~doc:
            "Verify every cell against the documented error envelope; exit 2 \
             on a violation (CI gate).")

(* --- serve / client ---------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (serve) or connect to (client) a Unix socket at $(docv).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (serve) or connect to (client) TCP $(docv); 0 lets \
              the kernel pick (printed at startup).")

(* --socket wins if both are given; neither means a Unix socket at the
   default path. *)
let resolve_addr socket host port =
  match (socket, port) with
  | Some path, _ -> Bw_serve.Server.Unix_sock path
  | None, Some p -> Bw_serve.Server.Tcp (host, p)
  | None, None -> Bw_serve.Server.Unix_sock "bwc.sock"

let serve_cmd =
  let run socket host port jobs cache_capacity max_queue degrade_queue
      default_deadline_ms max_deadline_ms idle_timeout max_request_bytes
      verbose =
    let addr = resolve_addr socket host port in
    let config =
      { (Bw_serve.Server.default_config addr) with
        Bw_serve.Server.jobs;
        cache_capacity;
        max_queue;
        degrade_queue;
        default_deadline_ms;
        max_deadline_ms;
        idle_timeout_s = idle_timeout;
        max_request_bytes;
        verbose }
    in
    let server = Bw_serve.Server.start config in
    Bw_serve.Server.install_signal_handlers server;
    Format.printf "bwc serve: listening on %a (pid %d)@."
      Bw_serve.Server.pp_addr
      (Bw_serve.Server.addr server)
      (Unix.getpid ());
    Bw_serve.Server.wait server;
    if verbose then Format.eprintf "bwc serve: drained, exiting@."
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the compute pool (default: cores - 1).")
  in
  let cache_arg =
    Arg.(
      value & opt int 512
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache entries before LRU eviction.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Pending compute requests before new ones are rejected with \
             $(b,overloaded) and a retry_after_ms hint.")
  in
  let degrade_queue_arg =
    Arg.(
      value & opt int 16
      & info [ "degrade-queue" ] ~docv:"N"
          ~doc:
            "Pending compute requests before predict/analyze answers degrade \
             to the analytic tier (marked $(b,degraded: true)).")
  in
  let default_deadline_arg =
    Arg.(
      value & opt int 30_000
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Deadline applied to requests that do not carry their own \
             deadline_ms; 0 disables.")
  in
  let max_deadline_arg =
    Arg.(
      value & opt int 300_000
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Cap on client-supplied deadline_ms; 0 disables the cap.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 60.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog closes connections idle longer than this (half-dead \
             peers, slow-loris writers); 0 disables.")
  in
  let max_request_bytes_arg =
    Arg.(
      value & opt int (4 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:
            "Longest accepted request line; longer ones get a structured \
             $(b,request_too_large) error and the connection closes.")
  in
  let verbose_flag =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log drain progress to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the bandwidth-advisor service: a long-running daemon answering \
          analyze/predict/optimize/simulate/fuzz requests as JSON lines over \
          a Unix or TCP socket, with a content-addressed result cache, \
          one engine run per executed program streamed into every \
          requested machine, and a /metrics endpoint.  Per-request \
          deadlines, admission control with tier-degrading load shed, and \
          worker-domain supervision keep it answering under overload and \
          injected faults.  SIGTERM drains and exits 0.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ jobs_arg $ cache_arg
      $ max_queue_arg $ degrade_queue_arg $ default_deadline_arg
      $ max_deadline_arg $ idle_timeout_arg $ max_request_bytes_arg
      $ verbose_flag)

let client_cmd =
  let run socket host port op_name id program source_file machines engine_name
      budget_name scale seed count size no_cache deadline_ms timeout retries
      chaos load clients requests out =
    let addr = resolve_addr socket host port in
    if load then begin
      (* load-generator mode: seeded mixed stream, stats JSON out.
         --chaos switches to resilient retrying clients and a
         fault-hunting stream; its pass criterion is failed = 0 (every
         request answered or cleanly rejected), where plain load keeps
         the stricter errors = 0. *)
      let spec =
        { (Bw_serve.Loadgen.default_spec addr) with
          Bw_serve.Loadgen.clients;
          requests;
          seed;
          scale;
          chaos;
          timeout_s = (if timeout > 0. then timeout else 10.0);
          retries = (if retries > 0 then retries else 3) }
      in
      let stats = Bw_serve.Loadgen.run spec in
      let doc = Bw_core.Json.to_string (Bw_serve.Loadgen.json_of_stats stats) in
      (match out with
      | None -> print_endline doc
      | Some path ->
        let oc = open_out path in
        output_string oc doc;
        output_char oc '\n';
        close_out oc);
      let bad =
        if chaos then stats.Bw_serve.Loadgen.failed > 0
        else stats.Bw_serve.Loadgen.errors > 0
      in
      if bad then exit 2
    end
    else if op_name = "metrics-raw" then
      (* scrape the /metrics endpoint and print the exposition text *)
      print_string (or_die (Bw_serve.Client.fetch_metrics addr))
    else begin
      let op =
        match Bw_serve.Protocol.op_of_name op_name with
        | Some op -> op
        | None ->
          Format.eprintf "bwc: unknown op '%s' (try ping, metrics, analyze, \
                          predict, optimize, simulate, fuzz, shutdown)@."
            op_name;
          exit 1
      in
      let source =
        Option.map
          (fun path ->
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s)
          source_file
      in
      let base = Bw_serve.Protocol.default_request op in
      let req =
        { base with
          Bw_serve.Protocol.id;
          program;
          source;
          scale;
          machines =
            (if machines = [] then base.Bw_serve.Protocol.machines
             else machines);
          engine = or_die (Bw_serve.Protocol.engine_of_name engine_name);
          budget = or_die (Bw_serve.Protocol.budget_of_name budget_name);
          seed;
          count;
          size;
          no_cache;
          deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None) }
      in
      let response =
        if retries > 0 then begin
          (* resilient path: per-attempt timeout, bounded retries with
             backoff, honours the server's retry_after_ms hint *)
          let cfg =
            { Bw_serve.Client.default_retry_config with
              Bw_serve.Client.timeout_s =
                (if timeout > 0. then timeout
                 else Bw_serve.Client.default_retry_config
                        .Bw_serve.Client.timeout_s);
              max_retries = retries }
          in
          let rc = Bw_serve.Client.resilient ~cfg ~seed addr in
          Fun.protect
            ~finally:(fun () -> Bw_serve.Client.resilient_close rc)
            (fun () -> or_die (Bw_serve.Client.resilient_request rc req))
        end
        else or_die (Bw_serve.Client.one_shot ~timeout_s:timeout addr req)
      in
      print_endline (Bw_core.Json.to_string response);
      match Bw_serve.Protocol.response_result response with
      | Ok _ -> ()
      | Error _ -> exit 1
    end
  in
  let op_arg =
    Arg.(
      value
      & pos 0 string "ping"
      & info [] ~docv:"OP"
          ~doc:
            "Operation: ping, metrics, analyze, predict, optimize, simulate, \
             fuzz, shutdown — or metrics-raw to scrape the /metrics endpoint.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed in the response.")
  in
  let program_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"NAME"
          ~doc:"Registry workload name or server-side .bw path.")
  in
  let source_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"FILE"
          ~doc:"Send the contents of a local .bw file as inline source.")
  in
  let machines_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "machines" ] ~docv:"M1,M2,..."
          ~doc:"Machine models the server should target.")
  in
  let engine_arg =
    Arg.(
      value & opt string "compiled"
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"compiled or interpreted.")
  in
  let budget_arg =
    Arg.(
      value & opt string "exact"
      & info [ "budget" ] ~docv:"TIER"
          ~doc:"Predict tier: analytic, reuse or exact.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Fuzz / load-generator seed.")
  in
  let count_arg =
    Arg.(
      value & opt int 10
      & info [ "count" ] ~docv:"N" ~doc:"Fuzz: programs to test.")
  in
  let size_arg =
    Arg.(
      value & opt int 5
      & info [ "size" ] ~docv:"N" ~doc:"Fuzz: generator size knob.")
  in
  let no_cache_flag =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Bypass the server's result cache.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: the server abandons work past it and \
             answers $(b,deadline_exceeded).  0 leaves the server default.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Socket send/receive timeout per attempt, so a stalled server \
             surfaces as an error instead of a hang.  0 disables (load \
             --chaos mode then uses 10 s).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry with jittered backoff — idempotent requests only: \
             retryable rejections (overloaded, worker_crashed) up to \
             $(docv) times, transport failures while the 30 s backoff \
             budget lasts.  A connect error before the first connection \
             (say, a missing socket) fails at once.  0 disables (load \
             --chaos mode then uses 3).")
  in
  let chaos_flag =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "With --load: chaos-harness mode.  Clients retry with timeouts \
             and backoff, the stream carries tight deadlines and cache \
             bypasses, and the exit criterion relaxes to \"no request left \
             unanswered\" (exit 2 only if a request got no reply at all) — \
             structured rejections and degraded answers count as survival.")
  in
  let load_flag =
    Arg.(
      value & flag
      & info [ "load" ]
          ~doc:
            "Load-generator mode: drive a seeded mixed request stream from \
             --clients domains and print latency/hit-rate statistics as JSON \
             (exit 2 if any request failed).")
  in
  let clients_arg =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"Load mode: client domains.")
  in
  let requests_arg =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"N" ~doc:"Load mode: total requests.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Load mode: write the stats JSON here.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running bwc serve daemon: send one request and print the \
          response, scrape metrics, or drive a load-generator stream.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ op_arg $ id_arg
      $ program_arg $ source_arg $ machines_arg $ engine_arg $ budget_arg
      $ scale_arg $ seed_arg $ count_arg $ size_arg $ no_cache_flag
      $ deadline_arg $ timeout_arg $ retries_arg $ chaos_flag $ load_flag
      $ clients_arg $ requests_arg $ out_arg)

let () =
  (match Bw_obs.Fault.arm_from_env () with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "bwc: bad BWC_FAULTS: %s@." msg;
    exit 1);
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "bwc" ~version:"1.0"
      ~doc:
        "Bandwidth-oriented compilation: balance analysis, bandwidth-minimal \
         loop fusion, storage reduction and store elimination (Ding & \
         Kennedy, IPPS 2000)"
  in
  let group =
    Cmd.group ~default info
      [ list_cmd; show_cmd; parse_cmd; fmt_cmd; corpus_cmd; analyze_cmd;
        optimize_cmd; profile_cmd; fuse_cmd;
        advise_cmd; reuse_cmd; simulate_cmd; predict_cmd;
        fuzz_cmd; lint_cmd; faults_cmd; validate_json_cmd; serve_cmd;
        client_cmd ]
  in
  (* ~catch:false + our own handler: any escaped exception becomes a
     one-line "bwc: ..." on stderr and exit code 1 — no backtraces.
     Cmdliner's own CLI/internal error codes (124/125) are folded into
     the documented usage-error code 1. *)
  exit
    (match Cmd.eval ~catch:false group with
    | 124 | 125 -> 1
    | code -> code
    | exception e ->
      let msg =
        match String.index_opt (Printexc.to_string e) '\n' with
        | Some i -> String.sub (Printexc.to_string e) 0 i
        | None -> Printexc.to_string e
      in
      Format.eprintf "bwc: %s@." msg;
      1)
