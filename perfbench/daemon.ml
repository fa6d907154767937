(* `bwc serve` as its own process, driven from the benchmark: start and
   stop it, send it requests and check the answers, read its counters,
   and time the request path's functions in process.

   The server has one worker domain and runs apart from the benchmark:
   OCaml 5 minor collections stop every domain of a process, so sharing
   one would couple the client's heap with the server's. *)

open Common
module Json = Bw_core.Json
module Protocol = Bw_serve.Protocol
module Client = Bw_serve.Client

type server = { pid : int; addr : Bw_serve.Server.addr }

let bwc_exe () =
  (* bench.exe and bwc.exe are built side by side under _build/default *)
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat root (Filename.concat "bin" "bwc.exe")

let live = ref []

let stop server =
  if List.mem server.pid !live then begin
    (match Client.one_shot server.addr (Protocol.default_request Protocol.Shutdown) with
    | Ok _ | Error _ -> ()
    | exception _ -> ());
    let deadline = now () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] server.pid with
      | 0, _ when now () < deadline -> Unix.sleepf 0.01; reap ()
      | 0, _ ->
        Unix.kill server.pid Sys.sigkill;
        ignore (Unix.waitpid [] server.pid)
      | _ -> ()
    in
    reap ();
    live := List.filter (fun p -> p <> server.pid) !live
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let socket_counter = ref 0

(* Start `bwc serve` and wait until it answers a ping. *)
let start () =
  incr socket_counter;
  let path = Printf.sprintf ".perfbench.%d.%d.sock" (Unix.getpid ()) !socket_counter in
  let addr = Bw_serve.Server.Unix_sock path in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process (bwc_exe ())
      [| "bwc"; "serve"; "--socket"; path; "--jobs"; "1" |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let server = { pid; addr } in
  let deadline = now () +. 30. in
  let rec ready () =
    match Client.one_shot addr (Protocol.default_request Protocol.Ping) with
    | Ok j when Result.is_ok (Protocol.response_result j) -> server
    | _ | (exception _) ->
      if now () > deadline then failwith "serve: bwc serve did not answer within 30 s";
      Unix.sleepf 0.005;
      ready ()
  in
  ready ()

(* Run [f] against a fresh server, stopping it on every way out. *)
let with_server f =
  let server = start () in
  Fun.protect ~finally:(fun () -> stop server) (fun () -> f server)

(* Server-side counters, read through the server's metrics op. *)
let server_counters server =
  match Client.one_shot server.addr (Protocol.default_request Protocol.Metrics) with
  | Error msg -> failwith ("serve: metrics: " ^ msg)
  | Ok j -> (
    match Option.bind (Result.to_option (Protocol.response_result j)) (Json.member "text") with
    | Some (Json.String text) ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)
    | _ -> failwith "serve: metrics reply has no text")

let delta before after name =
  let get l = Option.value ~default:0. (List.assoc_opt name l) in
  get after -. get before

(* --- requests and answers ----------------------------------------------------- *)

(* A hot request is one whose answer repeats: every answer after the
   first must match it byte for byte. *)
type kind = Hot | Cold | Ping

let line_of req = Json.to_string (Protocol.json_of_request req)

type sample = { start : float; latency_ms : float; kind : kind; cached : bool; ok : bool }

(* First answer per hot request line. *)
type answers = { lock : Mutex.t; first : (string, string) Hashtbl.t }

let answers () = { lock = Mutex.create (); first = Hashtbl.create 128 }

let same_as_first answers line result =
  let text = Json.to_string result in
  Mutex.lock answers.lock;
  let same =
    match Hashtbl.find_opt answers.first line with
    | Some first -> first = text
    | None -> Hashtbl.add answers.first line text; true
  in
  Mutex.unlock answers.lock;
  same

(* The first answer recorded for [req], parsed. *)
let first_answer answers req =
  Option.map Json.parse (Hashtbl.find_opt answers.first (line_of req))

let send client answers (kind, req) =
  let line = line_of req in
  let t0 = now () in
  let reply = Client.request_raw client line in
  let latency_ms = (now () -. t0) *. 1e3 in
  let cached, failure =
    match reply with
    | Error msg -> (false, Some ("transport: " ^ msg))
    | Ok j -> (
      let cached = Protocol.response_cached j in
      match Protocol.response_result j with
      | Ok _ when Protocol.response_degraded j -> (cached, Some "degraded")
      | Ok result ->
        if kind <> Hot || same_as_first answers line result then (cached, None)
        else (cached, Some "answer differs from the first one for this request")
      | Error msg -> (cached, Some msg))
  in
  Option.iter (fun why -> prerr_endline ("serve: failed: " ^ why ^ ": " ^ line)) failure;
  { start = t0; latency_ms; kind; cached; ok = failure = None }

(* [requests] in order over one connection. *)
let send_all server answers requests =
  let client = Client.connect ~timeout_s:60. server.addr in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () -> Array.of_list (List.map (send client answers) requests))

let failures samples = Array.fold_left (fun k s -> if s.ok then k else k + 1) 0 samples

let latencies pred samples =
  Array.of_list
    (List.filter_map
       (fun s -> if pred s then Some s.latency_ms else None)
       (Array.to_list samples))

(* --- layer figures ------------------------------------------------------------ *)

(* The serve layer seen from the client, over [samples], and the
   server's own counters, as deltas between two reads. *)
let layer_metrics samples ~before ~after =
  let hits = latencies (fun s -> s.cached) samples in
  let misses = latencies (fun s -> (not s.cached) && s.kind <> Ping) samples in
  let pings = latencies (fun s -> s.kind = Ping) samples in
  let cached = Array.fold_left (fun k s -> if s.cached then k + 1 else k) 0 samples in
  let counter name = delta before after name in
  [ single "serve.hit_p50_ms" "ms" (Stats.percentile hits 50.);
    single "serve.miss_p50_ms" "ms" (Stats.percentile misses 50.);
    single "serve.miss_p99_ms" "ms" (Stats.percentile misses 99.);
    single "serve.ping_p50_ms" "ms" (Stats.percentile pings 50.);
    single "serve.cache.hit_ratio" "ratio" (ratio cached (Array.length samples));
    single "serve.batch.grouped" "count" (counter "serve_batch_grouped");
    single "serve.cache.join" "count" (counter "serve_cache_join");
    single "serve.queue.shed" "count" (counter "serve_queue_shed");
    single "serve.queue.degraded" "count" (counter "serve_queue_degraded") ]

(* Per-call cost of the request-path functions the server runs on every
   request, timed in process on request [lines] and on the recorded
   [answers]: decoding, loading the program, its digest (the cache key)
   and emitting a response. *)
let path_metrics lines answers =
  Bw_obs.Trace.with_enabled true @@ fun () ->
  let probe name f = per_call_us (fun () -> span name f) in
  let decode = ref [] and load = ref [] and digest = ref [] in
  List.iter
    (fun line ->
      let req, t = probe "serve.protocol.decode" (fun () -> Protocol.request_of_string line) in
      decode := t :: !decode;
      match req with
      | Ok req when Protocol.needs_program req -> (
        let p, t = probe "serve.load_program" (fun () -> Protocol.load_program req) in
        load := t :: !load;
        match p with
        | Ok p ->
          let _, t = probe "ir.digest" (fun () -> Bw_ir.Digest.program p) in
          digest := t :: !digest
        | Error msg -> failwith ("serve: request does not load: " ^ msg))
      | Ok _ -> ()
      | Error msg -> failwith ("serve: request does not decode: " ^ msg))
    lines;
  let emit =
    Hashtbl.fold
      (fun _ text acc ->
        let json = Json.parse text in
        snd (probe "core.json.emit" (fun () -> Json.to_string json)) :: acc)
      answers.first []
  in
  ignore (drain_self_times ());
  let arr l = Array.of_list l in
  [ of_samples "serve.load_program_us" "us" (arr !load);
    of_samples "serve.protocol.decode_us" "us" (arr !decode);
    of_samples "ir.digest_us" "us" (arr !digest);
    of_samples "core.json.emit_us" "us" (arr emit) ]
