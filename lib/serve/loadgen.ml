(* Load generator behind `bwc client --load`, the CI smoke and the
   chaos harness: N client domains hammer a running server with a
   seeded mixed request stream and we report latency percentiles,
   throughput, per-outcome counts, and the observed cache hit rate.

   In [chaos] mode each domain drives a resilient retrying client
   (timeouts, backoff, retry budget) and the stream is tilted to
   exercise the resilience machinery: a slice of requests carry tight
   deadlines, another slice bypasses the cache so work actually reaches
   the (possibly crashing) pool.  The pass criterion for a chaos run is
   [failed = 0]: every request either answered or structurally
   rejected, nothing hung, nothing died unexplained. *)

module Json = Bw_core.Json

type spec = {
  addr : Server.addr;
  clients : int;
  requests : int;
  seed : int;
  scale : int;
  chaos : bool;
  timeout_s : float;
  retries : int;
}

let default_spec addr =
  { addr;
    clients = 2;
    requests = 1000;
    seed = 42;
    scale = 1;
    chaos = false;
    timeout_s = 10.0;
    retries = 3 }

(* How one request ended, from the client's point of view. *)
type outcome =
  | Answered  (* ok, full fidelity *)
  | Degraded  (* ok, analytic tier under load shed *)
  | Rejected of string  (* structured rejection with a known code *)
  | Error_reply  (* other error-status response *)
  | No_answer  (* transport failure (after retries, in chaos mode) *)

let rejection_codes =
  [ "overloaded"; "deadline_exceeded"; "shutting_down"; "request_too_large" ]

type bucket = {
  count : int;
  b_p50_ms : float;
  b_p90_ms : float;
  b_p99_ms : float;
  b_max_ms : float;
}

type stats = {
  requests : int;
  clients : int;
  errors : int;
  cached : int;
  hit_rate : float;
  wall_seconds : float;
  throughput_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  ok : int;
  degraded : int;
  rejected : int;
  shed : int;
  failed : int;
  retried : int;
  by_outcome : (string * bucket) list;
}

(* One sample per completed request. *)
type sample = {
  latency_ms : float;
  was_cached : bool;
  outcome : outcome;
  retried : int;  (* retries this request consumed *)
}

(* The mixed stream draws from a deliberately bounded universe of
   request shapes so that a warmed-up run exercises the result cache:
   a handful of registry programs × machine subsets × ops. *)
let programs = [| "read_loop"; "write_loop"; "convolution"; "fig7" |]

let machine_sets =
  [| [ "origin2000" ];
     [ "exemplar" ];
     [ "origin2000"; "exemplar" ];
     [ "unconstrained" ] |]

let pick rng a = a.(Random.State.int rng (Array.length a))

let random_request rng ~scale ~chaos =
  let program = Some (pick rng programs) in
  let machines = pick rng machine_sets in
  (* weighted op mix: mostly analyze/predict/simulate, some optimize,
     a sprinkle of fuzz and ping *)
  let base =
    match Random.State.int rng 100 with
    | n when n < 30 ->
      { (Protocol.default_request Protocol.Analyze) with program; machines; scale }
    | n when n < 60 ->
      let budget =
        pick rng [| `Analytic; `Reuse; `Exact |]
      in
      { (Protocol.default_request Protocol.Predict) with
        program; machines; scale; budget }
    | n when n < 85 ->
      { (Protocol.default_request Protocol.Simulate) with program; machines; scale }
    | n when n < 93 ->
      { (Protocol.default_request Protocol.Optimize) with
        program; machines = [ List.hd machines ]; scale }
    | n when n < 97 ->
      { (Protocol.default_request Protocol.Fuzz) with
        seed = Random.State.int rng 4; count = 2; size = 3 }
    | _ -> Protocol.default_request Protocol.Ping
  in
  if not chaos then base
  else
    (* tilt the stream at the resilience machinery: tight deadlines
       that expire under injected delays, and cache bypasses so work
       reaches the pool (a warmed cache would otherwise absorb
       everything and leave the crash site uncrossed) *)
    let base =
      match Random.State.int rng 10 with
      | 0 -> { base with Protocol.deadline_ms = Some 25 }
      | _ -> base
    in
    match Random.State.int rng 5 with
    | 0 -> { base with Protocol.no_cache = true }
    | _ -> base

let classify reply =
  match reply with
  | Error _ -> (false, No_answer)
  | Ok j -> (
    let cached = Protocol.response_cached j in
    match Protocol.response_result j with
    | Ok _ -> (cached, if Protocol.response_degraded j then Degraded else Answered)
    | Error _ -> (
      match Protocol.response_error_code j with
      | Some c when List.mem c rejection_codes -> (cached, Rejected c)
      | _ -> (cached, Error_reply)))

let client_run (spec : spec) ~client_id ~count =
  let rng = Random.State.make [| spec.seed; client_id |] in
  let samples =
    Array.make count
      { latency_ms = 0.; was_cached = false; outcome = No_answer; retried = 0 }
  in
  let sample_one ~send i =
    let req = random_request rng ~scale:spec.scale ~chaos:spec.chaos in
    let t0 = Unix.gettimeofday () in
    let reply, retried = send req in
    let latency_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
    let was_cached, outcome = classify reply in
    samples.(i) <- { latency_ms; was_cached; outcome; retried }
  in
  if spec.chaos then begin
    let cfg =
      { Client.default_retry_config with
        Client.timeout_s = spec.timeout_s;
        max_retries = spec.retries }
    in
    let rc = Client.resilient ~cfg ~seed:(spec.seed lxor (client_id * 7919)) spec.addr in
    Fun.protect
      ~finally:(fun () -> Client.resilient_close rc)
      (fun () ->
        for i = 0 to count - 1 do
          sample_one i ~send:(fun req ->
              let before = Client.retry_count rc in
              let reply = Client.resilient_request rc req in
              (reply, Client.retry_count rc - before))
        done;
        Ok samples)
  end
  else
    Result.map
      (fun client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            for i = 0 to count - 1 do
              sample_one i ~send:(fun req -> (Client.request client req, 0))
            done;
            samples))
      (Client.try_connect spec.addr)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let bucket_of samples =
  let latencies = Array.map (fun s -> s.latency_ms) samples in
  Array.sort compare latencies;
  let n = Array.length latencies in
  { count = n;
    b_p50_ms = percentile latencies 50.;
    b_p90_ms = percentile latencies 90.;
    b_p99_ms = percentile latencies 99.;
    b_max_ms = (if n = 0 then 0. else latencies.(n - 1)) }

let outcome_name = function
  | Answered -> "ok"
  | Degraded -> "degraded"
  | Rejected _ -> "rejected"
  | Error_reply -> "error"
  | No_answer -> "failed"

let stats_of (spec : spec) ~wall_seconds samples =
  let latencies =
    Array.map (fun s -> s.latency_ms) (Array.copy samples)
  in
  Array.sort compare latencies;
  let count pred =
    Array.fold_left (fun acc s -> if pred s then acc + 1 else acc) 0 samples
  in
  let ok = count (fun s -> s.outcome = Answered) in
  let degraded = count (fun s -> s.outcome = Degraded) in
  let rejected =
    count (fun s -> match s.outcome with Rejected _ -> true | _ -> false)
  in
  let shed = count (fun s -> s.outcome = Rejected "overloaded") in
  let failed = count (fun s -> s.outcome = No_answer) in
  let errors = Array.length samples - ok - degraded in
  let retried = Array.fold_left (fun acc s -> acc + s.retried) 0 samples in
  let cached = count (fun s -> s.was_cached) in
  let by_outcome =
    List.map
      (fun name ->
        ( name,
          bucket_of
            (Array.of_list
               (List.filter
                  (fun s -> outcome_name s.outcome = name)
                  (Array.to_list samples))) ))
      [ "ok"; "degraded"; "rejected"; "error"; "failed" ]
  in
  let n = Array.length samples in
  { requests = n;
    clients = spec.clients;
    errors;
    cached;
    hit_rate = (if n = 0 then 0. else float_of_int cached /. float_of_int n);
    wall_seconds;
    throughput_rps =
      (if wall_seconds > 0. then float_of_int n /. wall_seconds else 0.);
    p50_ms = percentile latencies 50.;
    p90_ms = percentile latencies 90.;
    p99_ms = percentile latencies 99.;
    max_ms = (if n = 0 then 0. else latencies.(n - 1));
    ok;
    degraded;
    rejected;
    shed;
    failed;
    retried;
    by_outcome }

let run (spec : spec) =
  if spec.clients < 1 then invalid_arg "Loadgen.run: clients < 1";
  if spec.requests < 1 then invalid_arg "Loadgen.run: requests < 1";
  let per_client = spec.requests / spec.clients in
  let counts =
    (* distribute the remainder over the first few clients *)
    Array.init spec.clients (fun i ->
        per_client + if i < spec.requests mod spec.clients then 1 else 0)
  in
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.mapi
      (fun i count ->
        Domain.spawn (fun () -> client_run spec ~client_id:i ~count))
      counts
  in
  let outcomes = Array.to_list (Array.map Domain.join domains) in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  match
    List.find_map (function Error msg -> Some msg | Ok _ -> None) outcomes
  with
  | Some msg -> Error msg
  | None ->
    Ok
      (stats_of spec ~wall_seconds
         (Array.concat (List.map Result.get_ok outcomes)))

let json_of_bucket b =
  Json.Obj
    [ ("count", Json.Int b.count);
      ("p50_ms", Json.Float b.b_p50_ms);
      ("p90_ms", Json.Float b.b_p90_ms);
      ("p99_ms", Json.Float b.b_p99_ms);
      ("max_ms", Json.Float b.b_max_ms) ]

let json_of_stats s =
  Json.Obj
    [ ("requests", Json.Int s.requests);
      ("clients", Json.Int s.clients);
      ("errors", Json.Int s.errors);
      ("cached", Json.Int s.cached);
      ("hit_rate", Json.Float s.hit_rate);
      ("wall_seconds", Json.Float s.wall_seconds);
      ("throughput_rps", Json.Float s.throughput_rps);
      ("p50_ms", Json.Float s.p50_ms);
      ("p90_ms", Json.Float s.p90_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("max_ms", Json.Float s.max_ms);
      ("ok", Json.Int s.ok);
      ("degraded", Json.Int s.degraded);
      ("rejected", Json.Int s.rejected);
      ("shed", Json.Int s.shed);
      ("failed", Json.Int s.failed);
      ("retried", Json.Int s.retried);
      ( "outcomes",
        Json.Obj (List.map (fun (name, b) -> (name, json_of_bucket b)) s.by_outcome)
      ) ]
