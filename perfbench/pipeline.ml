(* The optimizer pipeline as `bwc optimize` runs it, starting from .bw
   text, with a benchmark span around each layer's call: `lang` parses,
   `transform` runs the guarded strategy, then either the layout pass
   (`--layout`) or, inside the strategy, the fusion search
   (`--fuse-search`).  Both workloads time these layers on their own
   programs in their traced runs; compile also times its passes. *)

open Common

(* Which pipeline a program goes through. *)
type kind = Layout | Search
type input = { name : string; kind : kind; source : string }

let input kind (p : Bw_ir.Ast.program) =
  { name = p.prog_name; kind; source = Bw_ir.Pretty.program_to_string p }

let search_config = Bw_fusion.Search.default_config ()

type result = {
  original : Bw_ir.Ast.program;
  optimized : Bw_ir.Ast.program;
  rollbacks : int;
}

let optimize input =
  span "compile.op" @@ fun () ->
  match span "lang.parse" (fun () -> Bw_lang.Parse.parse_program input.source) with
  | Error e -> Error (input.name ^ ": " ^ Bw_lang.Parse.error_to_string e)
  | Ok p ->
    let q, events =
      match input.kind with
      | Layout ->
        let q, _, events =
          span "transform.strategy" (fun () -> Bw_transform.Strategy.run_guarded p)
        in
        let q, _ = span "transform.layout" (fun () -> Bw_transform.Layout.run q) in
        (q, events)
      | Search ->
        let fuse_search q =
          span "fusion.search" (fun () -> Bw_fusion.Search.stage search_config q)
        in
        let q, _, events =
          span "transform.strategy" (fun () ->
              Bw_transform.Strategy.run_guarded ~fuse_search p)
        in
        (q, events)
    in
    let rollbacks =
      List.length
        (List.filter
           (fun (e : Bw_transform.Guard.event) ->
             match e.verdict with Rolled_back _ -> true | Committed -> false)
           events)
    in
    Ok { original = p; optimized = q; rollbacks }

(* One pass over the program set: per-program results and wall times.
   No collection between ops: forcing one doubles the peak memory, which
   `bwc optimize` users never see. *)
let pass inputs = List.split (List.map (fun i -> timed (fun () -> optimize i)) inputs)

let sum = List.fold_left ( +. ) 0.

(* Correctness of one pass against the reference pass: every program
   parses, and optimizes to the same program.  Returns the failures. *)
let mismatches ~reference results =
  List.fold_left2
    (fun failed r0 r ->
      match (r0, r) with
      | Ok a, Ok b when Bw_ir.Ast.equal_program a.optimized b.optimized -> failed
      | _ -> failed + 1)
    0 reference results

(* Each optimized program must behave like its source on both engines.
   Returns the failures and the optimized programs' summed traffic on
   Origin2000, in bytes. *)
let validate reference =
  List.fold_left
    (fun (failed, bytes) r ->
      match r with
      | Error msg ->
        prerr_endline ("pipeline: " ^ msg);
        (failed + 1, bytes)
      | Ok r -> (
        match
          Bw_transform.Guard.validate_pair ~before:r.original ~after:r.optimized ()
        with
        | Error msg ->
          prerr_endline ("pipeline: " ^ r.optimized.prog_name ^ ": " ^ msg);
          (failed + 1, bytes)
        | Ok () ->
          let sim =
            Bw_exec.Run.simulate ~machine:Bw_machine.Machine.origin2000 r.optimized
          in
          let traffic =
            Bw_machine.Cache.memory_bytes_in sim.cache
            + Bw_machine.Cache.memory_bytes_out sim.cache
          in
          (failed, bytes + traffic)))
    (0, 0) reference

(* --- layer figures ------------------------------------------------------------ *)

(* One traced pass: its results and op walls, and the self time of each
   pipeline layer over the pass. *)
type traced = {
  results : (result, string) Stdlib.result list;
  walls : float list;
  parse_ms : float;
  strategy_ms : float;
  layout_ms : float;
  rollbacks : float;
}

let traced_pass inputs =
  let results, walls = Bw_obs.Trace.with_enabled true (fun () -> pass inputs) in
  let times = drain_self_times () in
  let ms name = self_us times name /. 1e3 in
  { results;
    walls;
    parse_ms = ms "lang.parse";
    strategy_ms = ms "transform.strategy";
    layout_ms = ms "transform.layout";
    rollbacks =
      float_of_int
        (List.fold_left
           (fun n r -> match r with Ok (r : result) -> n + r.rollbacks | Error _ -> n)
           0 results) }

let layout_counters () = (counter "pass.layout.accept", counter "pass.layout.reject")

(* The lang and transform figures, medians over [passes]; [accepted] and
   [rejected] are the layout pass's decisions over the same passes. *)
let layer_metrics passes ~accepted ~rejected =
  let per_pass f = Array.of_list (List.map f passes) in
  [ of_samples "lang.parse_ms" "ms" (per_pass (fun p -> p.parse_ms));
    of_samples "transform.strategy_ms" "ms" (per_pass (fun p -> p.strategy_ms));
    of_samples "transform.layout_ms" "ms" (per_pass (fun p -> p.layout_ms));
    single "transform.layout.accept_ratio" "ratio" (ratio accepted (accepted + rejected));
    of_samples "transform.guard.rollbacks" "count" (per_pass (fun p -> p.rollbacks)) ]

(* [passes] traced passes over [inputs] and their layer figures; every
   pass must reproduce the first.  Returns the metrics, the first pass's
   results, the ops attempted and the failures. *)
let fixed_layer_metrics ~passes inputs =
  let a0, r0 = layout_counters () in
  let runs = List.init passes (fun _ -> traced_pass inputs) in
  let a1, r1 = layout_counters () in
  let reference = (List.hd runs).results in
  let failed =
    List.fold_left (fun n p -> n + mismatches ~reference p.results) 0 runs
  in
  ( layer_metrics runs ~accepted:(a1 - a0) ~rejected:(r1 - r0),
    reference,
    passes * List.length inputs,
    failed )

let search_counters () =
  ( counter "fusion.search.candidates",
    counter "fusion.search.cache_hit",
    counter "fusion.search.accept",
    counter "fusion.search.reject" )

(* One traced pass over [inputs] of kind [Search]: the fusion layer's
   figures, and the results to validate. *)
let search_pass inputs =
  let c0, h0, a0, r0 = search_counters () in
  let results = Bw_obs.Trace.with_enabled true (fun () -> fst (pass inputs)) in
  let times = drain_self_times () in
  let c1, h1, a1, r1 = search_counters () in
  let cand = c1 - c0 and hits = h1 - h0 in
  ( [ single "fusion.search_ms" "ms" (self_us times "fusion.search" /. 1e3);
      single "fusion.search.candidates" "count" (float_of_int cand);
      single "fusion.search.memo_hit_ratio" "ratio" (ratio hits (cand + hits));
      single "fusion.search.accept_ratio" "ratio" (ratio (a1 - a0) (a1 - a0 + r1 - r0)) ],
    results )

(* Per-call cost of the analytic predictor on every input and output
   program; search prices each candidate with it. *)
let predict_metric results =
  let samples =
    Bw_obs.Trace.with_enabled true (fun () ->
        List.concat_map
          (fun r ->
            match r with
            | Error _ -> []
            | Ok r ->
              List.map
                (fun p ->
                  snd
                    (per_call_us (fun () ->
                         span "analysis.predict" (fun () ->
                             Bw_analysis.Predict.predict
                               ~machine:Bw_machine.Machine.origin2000 p))))
                [ r.original; r.optimized ])
          results)
  in
  ignore (drain_self_times ());
  of_samples "analysis.predict_us" "us" (Array.of_list samples)
