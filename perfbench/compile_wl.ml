(* compile: `bwc optimize --layout` on every corpus program, starting
   from .bw text.  One op parses and optimizes one program; a pass
   optimizes the whole corpus.  Every timed pass takes a fresh order
   drawn from the seed, so that a program's fastest time over the run
   does not depend on which program the seed put before it: a small
   program that always follows a large one starts with cold caches, and
   with one order per run the median program's time spread by 27% over
   ten seeds.

   The fusion-search DAG family (`bwc optimize --fuse-search`) is
   optimized and validated in the traced run only, where it gives the
   fusion layer's figures.  Its programs take about a second each, and
   on a host whose speed drifts for seconds at a time a figure that
   includes them spread by 20-23% over ten seeds; the corpus ops take
   milliseconds, and a run holds enough passes of them for the fastest
   time per program to be steady.

   The traced run also hands the corpus to the layers compile itself
   does not reach: the simulation tier that measures an optimized
   program, and `bwc serve` answering analyze, predict, simulate and
   optimize for each corpus source, once cold and once from its cache. *)

open Common

let corpus_dir = "corpus"

let setup () =
  let corpus =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bw")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat corpus_dir f in
           match Bw_core.Loader.read_file path with
           | Ok source -> { Pipeline.name = f; kind = Layout; source }
           | Error msg -> failwith msg)
  in
  let dags =
    List.map
      (fun (_, p) -> Pipeline.input Search p)
      (Bw_workloads.Dag_family.instances ~scale:1)
  in
  if corpus = [] then failwith "compile: no corpus/*.bw programs";
  (corpus, dags)

(* Untraced and traced corpus passes alternate until [args.seconds] have
   passed; the pipeline layers' figures come from the traced ones, per
   pass. *)
let traced_passes (args : args) ~check inputs =
  let untraced = ref [] and traced = ref [] in
  let a0, r0 = Pipeline.layout_counters () in
  let t0 = now () in
  while !traced = [] || now () -. t0 < args.seconds do
    untraced := Pipeline.sum (check (Pipeline.pass inputs)) :: !untraced;
    let p = Pipeline.traced_pass inputs in
    ignore (check (p.results, p.walls));
    traced := p :: !traced
  done;
  let a1, r1 = Pipeline.layout_counters () in
  let traced_walls = Array.of_list (List.map (fun p -> Pipeline.sum p.Pipeline.walls) !traced) in
  Pipeline.layer_metrics (List.rev !traced) ~accepted:(a1 - a0) ~rejected:(r1 - r0)
  @ [ single "trace_overhead" "ratio"
        (Stats.median traced_walls /. Stats.median (Array.of_list !untraced)) ]

(* The corpus served: for each program, in seed order, analyze, predict,
   simulate and optimize on Origin2000 with the program as inline
   source, then a ping; then the same requests again, which the result
   cache answers.  Returns the metrics, the ops attempted and the
   failures. *)
let served inputs =
  let module P = Daemon.Protocol in
  let requests =
    List.concat_map
      (fun (i : Pipeline.input) ->
        let req op =
          (Daemon.Hot, { (P.default_request op) with source = Some i.source; machines = [ "origin2000" ] })
        in
        [ req P.Analyze; req P.Predict; req P.Simulate; req P.Optimize;
          (Daemon.Ping, P.default_request P.Ping) ])
      inputs
  in
  let answers = Daemon.answers () in
  let samples, before, after =
    Daemon.with_server (fun server ->
        let before = Daemon.server_counters server in
        let samples = Daemon.send_all server answers (requests @ requests) in
        (samples, before, Daemon.server_counters server))
  in
  let lines = List.map (fun (_, req) -> Daemon.line_of req) requests in
  ( Daemon.layer_metrics samples ~before ~after @ Daemon.path_metrics lines answers,
    Array.length samples,
    Daemon.failures samples )

(* One pass over [inputs] in an order drawn from [rng]; its results and
   op times are returned in the order of [inputs]. *)
let shuffled_pass rng inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let results = Array.make n (Error "not run") and walls = Array.make n 0. in
  List.iter
    (fun i ->
      let r, t = timed (fun () -> Pipeline.optimize inputs.(i)) in
      results.(i) <- r;
      walls.(i) <- t)
    (shuffle rng (List.init n Fun.id));
  (Array.to_list results, Array.to_list walls)

let run (args : args) =
  let (inputs, dags), first = first_setups ~times:31 setup in
  let rng = Random.State.make [| args.seed |] in
  let ops = List.length inputs in
  (* warm-up pass: its programs are the reference every later pass must
     reproduce *)
  let reference, _ = Pipeline.pass inputs in
  let attempted = ref ops and failed = ref 0 in
  let check (results, op_walls) =
    attempted := !attempted + ops;
    failed := !failed + Pipeline.mismatches ~reference results;
    op_walls
  in
  let metrics =
    if not args.trace then begin
      (* set-up is timed again after every tenth pass, so that its
         samples span the run *)
      let rss = ref [] and setups = ref [] in
      let op_walls =
        Array.of_list
          (fixed_passes ~seconds:args.seconds ~pass_s:0.05 (fun () ->
               let walls = check (shuffled_pass rng inputs) in
               rss := rss_mb "self" :: !rss;
               if List.length !rss mod 10 = 0 then setups := snd (timed_setup setup) :: !setups;
               walls))
      in
      let bad, bytes = Pipeline.validate reference in
      failed := !failed + bad;
      let fastest = fastest_per_op op_walls in
      let ms = Array.map (fun t -> t *. 1e3) fastest in
      [ of_samples "setup_s" "s" (Array.append first (Array.of_list !setups));
        { name = "ops_per_s";
          unit_ = "1/s";
          value = float_of_int ops /. Array.fold_left ( +. ) 0. fastest;
          samples = Array.map (fun walls -> float_of_int ops /. Pipeline.sum walls) op_walls };
        { name = "p50_ms"; unit_ = "ms"; value = Stats.percentile ms 50.; samples = ms };
        { name = "p99_ms"; unit_ = "ms"; value = Stats.percentile ms 99.; samples = ms };
        single "output_mb" "MB" (float_of_int bytes /. 1e6);
        of_samples "rss_mb" "MB" (Array.of_list !rss) ]
    end
    else begin
      let layers = traced_passes args ~check inputs in
      let search, dag_results = Pipeline.search_pass dags in
      let bad, _ = Pipeline.validate (reference @ dag_results) in
      attempted := !attempted + List.length dags;
      failed := !failed + bad;
      let programs =
        List.filter_map
          (function Ok (r : Pipeline.result) -> Some r.original | Error _ -> None)
          reference
      in
      let tier, tier_ops, tier_failed = Sim_tier.layer_metrics ~passes:3 programs in
      let serve, serve_ops, serve_failed = served inputs in
      attempted := !attempted + tier_ops + serve_ops;
      failed := !failed + tier_failed + serve_failed;
      layers @ search @ tier @ serve
      @ [ Pipeline.predict_metric (reference @ dag_results);
          single "failed_ratio" "ratio" (ratio !failed !attempted) ]
    end
  in
  { attempted = !attempted; failed = !failed; metrics }
