(* serve: `bwc serve` under a seeded closed-loop request stream.

   The server runs as its own process with one worker domain (see
   daemon.ml).  One client domain keeps one request in flight.  With two
   clients, each on its own connection, the host's two vCPUs carried
   more runnable threads than they have; the scheduler then set the
   figures, and a ping's median latency moved by 20% from run to run.

   About 90% of the stream is a hot set -- the load generator's registry
   programs x machine sets x analyze/predict/simulate/optimize/ping --
   which the result cache answers after warm-up; hits set the
   per-request floor (p50).  The rest is a cold tail of fresh Bw_qa.Gen
   programs sent as inline source, which always miss and put compute
   behind the socket (p99).  Warm-up is outside the timed window. *)

open Common
open Daemon

let clients = 1
let hot_programs = [| "read_loop"; "write_loop"; "convolution"; "fig7" |]

let machine_sets =
  [| [ "origin2000" ]; [ "exemplar" ]; [ "origin2000"; "exemplar" ]; [ "unconstrained" ] |]

let budgets = [| `Analytic; `Reuse; `Exact |]

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Weighted op mix of the load generator, without fuzz.  [ops] bounds
   the draw: 93 includes optimize, 85 leaves it out. *)
let draw_op rng ~ops ~program ~source =
  let machines = pick rng machine_sets in
  let req op = { (Protocol.default_request op) with program; source; machines } in
  match Random.State.int rng ops with
  | n when n < 30 -> req Protocol.Analyze
  | n when n < 60 -> { (req Protocol.Predict) with budget = pick rng budgets }
  | n when n < 85 -> req Protocol.Simulate
  | _ -> { (req Protocol.Optimize) with machines = [ List.hd machines ] }

(* Request [i] of the stream for [seed]: a pure function of both, so
   whichever client sends it, the stream is the same. *)
let request ~seed i =
  let rng = Random.State.make [| seed; i |] in
  match Random.State.int rng 100 with
  | n when n < 10 ->
    let p = Bw_qa.Gen.generate ~seed:((seed * 1_000_003) + i) ~size:(2 + Random.State.int rng 4) in
    (* no optimize in the cold tail: when the pipeline removes all of a
       generated program's work, the server's optimize answer divides
       by a zero run time and is not valid JSON *)
    (Cold, draw_op rng ~ops:85 ~program:None ~source:(Some (Bw_ir.Pretty.program_to_string p)))
  | n when n < 17 -> (Ping, Protocol.default_request Protocol.Ping)
  | _ -> (Hot, draw_op rng ~ops:93 ~program:(Some (pick rng hot_programs)) ~source:None)

(* Every hot request the stream can draw, for warm-up. *)
let hot_universe () =
  List.concat_map
    (fun program ->
      List.concat_map
        (fun machines ->
          let req op = { (Protocol.default_request op) with program = Some program; machines } in
          [ req Protocol.Analyze; req Protocol.Simulate;
            { (req Protocol.Optimize) with machines = [ List.hd machines ] } ]
          @ List.map (fun budget -> { (req Protocol.Predict) with budget }) (Array.to_list budgets))
        (Array.to_list machine_sets))
    (Array.to_list hot_programs)

(* Simulated memory traffic of the programs the server's optimize op
   returned for the hot set, summed over the hot set's optimize
   requests: the quality of the served optimizer, the same for every
   seed. *)
let optimized_mb answers =
  List.fold_left
    (fun acc (req : Protocol.request) ->
      if req.op <> Protocol.Optimize then acc
      else
        match Option.bind (first_answer answers req) (Json.member "memory_mb_after") with
        | Some (Json.Float mb) -> acc +. mb
        | Some (Json.Int mb) -> acc +. float_of_int mb
        | _ -> failwith "serve: optimize answer has no memory_mb_after")
    0. (hot_universe ())

(* The timed window cut into [slices] equal parts by request start.  The
   end-to-end figures are medians over the parts, so a stretch of slow
   host shorter than half the window does not move them. *)
let slices = 10

(* [clients] domains send stream requests from [next] on until
   [seconds] have passed.  Meanwhile this domain reads the server's
   resident set at the end of every part of the window. *)
let closed_loop server answers ~seed ~next ~seconds ~traced =
  let deadline = now () +. seconds in
  let client_loop () =
    let client = Client.connect ~timeout_s:60. server.addr in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let rec go acc =
          if now () >= deadline then acc
          else
            let r = request ~seed (Atomic.fetch_and_add next 1) in
            let s =
              if traced then span "serve.request" (fun () -> send client answers r)
              else send client answers r
            in
            go (s :: acc)
        in
        go [])
  in
  let rec watch rss =
    let next = now () +. (seconds /. float_of_int slices) in
    if next > deadline then rss
    else begin
      Unix.sleepf (Float.max 0. (next -. now ()));
      watch (rss_mb (string_of_int server.pid) :: rss)
    end
  in
  let run () =
    let t0 = now () in
    let domains = List.init clients (fun _ -> Domain.spawn client_loop) in
    let rss = watch [] in
    let samples = List.concat_map Domain.join domains in
    (Array.of_list samples, now () -. t0, Array.of_list rss)
  in
  if traced then Bw_obs.Trace.with_enabled true run else run ()

let per_slice samples ~seconds f =
  let t0 = Array.fold_left (fun m s -> Float.min m s.start) infinity samples in
  let len = seconds /. float_of_int slices in
  let parts = Array.make slices [] in
  Array.iter
    (fun s ->
      let i = max 0 (min (slices - 1) (int_of_float ((s.start -. t0) /. len))) in
      parts.(i) <- s :: parts.(i))
    samples;
  Array.map (fun part -> f (Array.of_list part) len) parts

(* The stream's programs, as the pipeline layers see them: the hot
   registry programs at the stream's scale and the cold tail's sources
   among the first [n] requests. *)
let stream_programs ~seed n =
  let scale = (Protocol.default_request Protocol.Simulate).scale in
  let hot =
    List.map
      (fun name ->
        match Bw_workloads.Registry.find name with
        | Some e -> e.build ~scale
        | None -> failwith ("serve: no registry workload " ^ name))
      (Array.to_list hot_programs)
  in
  let cold =
    List.filter_map
      (fun i ->
        match request ~seed i with
        | Cold, { Protocol.source = Some source; _ } -> Some (Printf.sprintf "cold%d" i, source)
        | _ -> None)
      (List.init n Fun.id)
  in
  (hot, cold)

(* The compiler and simulation layers on the stream's programs: what the
   server's optimize, predict, analyze and simulate misses run.  Returns
   the metrics, the ops attempted and the failures. *)
let compute_layers ~seed =
  let hot, cold = stream_programs ~seed 200 in
  let inputs kind =
    List.map (Pipeline.input kind) hot
    @ List.map (fun (name, source) -> { Pipeline.name; kind; source }) cold
  in
  let pipeline, reference, ops, failed =
    Pipeline.fixed_layer_metrics ~passes:3 (inputs Pipeline.Layout)
  in
  let search, searched = Pipeline.search_pass (inputs Pipeline.Search) in
  let bad, _ = Pipeline.validate (reference @ searched) in
  let tier, tier_ops, tier_failed = Sim_tier.layer_metrics ~passes:3 hot in
  ( pipeline @ search @ (Pipeline.predict_metric (reference @ searched) :: tier),
    ops + List.length searched + tier_ops,
    failed + bad + tier_failed )

let run (args : args) =
  (* set-up: start the server and see it answer; the last one stays *)
  let server, first = first_setups ~discard:stop ~times:10 start in
  Fun.protect ~finally:(fun () -> stop server) @@ fun () ->
  let answers = answers () in
  (* warm-up: every hot request once, then a short burst of the stream
     from an index range the timed window never uses *)
  let hot = send_all server answers (List.map (fun req -> (Hot, req)) (hot_universe ())) in
  let next = Atomic.make (1 lsl 30) in
  let burst, _, _ = closed_loop server answers ~seed:args.seed ~next ~seconds:1. ~traced:false in
  let warm_up = Array.append hot burst in
  Atomic.set next 0;
  let before = server_counters server in
  let window traced seconds =
    closed_loop server answers ~seed:args.seed ~next ~seconds ~traced
  in
  (* traced runs alternate untraced and traced quarters of the window *)
  let samples, untraced_wall, rss, traced_run =
    if args.trace then
      let quarters =
        List.map (fun traced -> (traced, window traced (args.seconds /. 4.)))
          [ false; true; false; true ]
      in
      let side t =
        List.fold_left
          (fun (n, w) (traced, (s, w', _)) ->
            if traced = t then (n + Array.length s, w +. w') else (n, w))
          (0, 0.) quarters
      in
      let n0, w0 = side false and n1, w1 = side true in
      (Array.concat (List.map (fun (_, (s, _, _)) -> s) quarters), w0, [||], Some (n0, n1, w1))
    else
      let s, w, rss = window false args.seconds in
      (s, w, rss, None)
  in
  let after = server_counters server in
  let failed = failures warm_up + failures samples in
  let attempted = Array.length warm_up + Array.length samples in
  match traced_run with
  | None ->
    let sliced name unit_ f = of_samples name unit_ (per_slice samples ~seconds:args.seconds f) in
    (* a part in which no request started was a stall at least as long *)
    let pct p part len =
      if part = [||] then len *. 1e3 else Stats.percentile (latencies (fun _ -> true) part) p
    in
    { attempted;
      failed;
      metrics =
        [ setup_metric ~discard:stop ~times:10 ~first start;
          sliced "ops_per_s" "1/s" (fun part len -> float_of_int (Array.length part) /. len);
          sliced "p50_ms" "ms" (pct 50.);
          sliced "p99_ms" "ms" (pct 99.);
          single "output_mb" "MB" (optimized_mb answers);
          of_samples "rss_mb" "MB" rss ] }
  | Some (n_untraced, n_traced, traced_wall) ->
    let lines = List.init 500 (fun i -> line_of (snd (request ~seed:args.seed i))) in
    let path = path_metrics lines answers in
    let compute, compute_ops, compute_failed = compute_layers ~seed:args.seed in
    let attempted = attempted + compute_ops and failed = failed + compute_failed in
    let rate count wall = float_of_int count /. wall in
    { attempted;
      failed;
      metrics =
        layer_metrics samples ~before ~after
        @ path @ compute
        @ [ single "trace_overhead" "ratio"
              (rate n_untraced untraced_wall /. rate n_traced traced_wall);
            single "failed_ratio" "ratio" (ratio failed attempted) ] }
