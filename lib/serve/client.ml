(* Minimal blocking client for the bwc serve wire protocol: one
   newline-delimited JSON request per line, one response line back. *)

module Json = Bw_core.Json

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?timeout_s (addr : Server.addr) =
  (* a server dropping the connection mid-request must surface as
     Sys_error, not SIGPIPE-kill the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd, sockaddr =
    match addr with
    | Server.Unix_sock path ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            failwith (Printf.sprintf "unknown host '%s'" host))
      in
      (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
       Unix.ADDR_INET (inet, port))
  in
  (match timeout_s with
  | Some s when s > 0.0 -> (
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
    with Unix.Unix_error _ -> ())
  | _ -> ());
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with _ -> ()

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match input_line t.ic with
  | line -> Ok line
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_error msg -> Error msg

let request_raw t line =
  match send_line t line with
  | exception Sys_error msg -> Error msg
  | () -> (
    match recv_line t with
    | Error _ as e -> e
    | Ok reply -> (
      match Json.parse reply with
      | j -> Ok j
      | exception Json.Parse_error msg ->
        Error (Printf.sprintf "malformed response: %s" msg)))

let request t req = request_raw t (Json.to_string (Protocol.json_of_request req))

(* A failed connect as one line naming the address and the cause. *)
let connect_error addr e =
  let cause =
    match e with
    | Unix.Unix_error (err, _, _) -> Unix.error_message err
    | Failure msg -> msg
    | e -> Printexc.to_string e
  in
  Format.asprintf "cannot connect to %a: %s" Server.pp_addr addr cause

let try_connect ?timeout_s addr =
  match connect ?timeout_s addr with
  | exception ((Unix.Unix_error _ | Failure _) as e) ->
    Error (connect_error addr e)
  | t -> Ok t

(* [f] on a fresh connection, closed on every way out. *)
let with_connection ?timeout_s addr f =
  Result.bind (try_connect ?timeout_s addr) (fun t ->
      Fun.protect ~finally:(fun () -> close t) (fun () -> f t))

let one_shot ?timeout_s addr req =
  with_connection ?timeout_s addr (fun t -> request t req)

(* --- resilient client -------------------------------------------------------- *)

type retry_config = {
  timeout_s : float;
  max_retries : int;
  base_backoff_ms : int;
  max_backoff_ms : int;
  retry_budget_ms : int;
}

let default_retry_config =
  { timeout_s = 10.0;
    max_retries = 3;
    base_backoff_ms = 25;
    max_backoff_ms = 2_000;
    retry_budget_ms = 30_000 }

type resilient = {
  r_addr : Server.addr;
  cfg : retry_config;
  rng : Random.State.t;
  mutable conn : t option;
  mutable connected : bool;  (* has any connect succeeded? *)
  mutable budget_left_ms : int;
  mutable prev_backoff_ms : int;
  mutable retries : int;
}

let retries_c = Bw_obs.Metrics.counter "client.retries"
let backoff_h = Bw_obs.Metrics.histogram "client.retry.backoff_ms"

let resilient ?(cfg = default_retry_config) ?(seed = 0) addr =
  { r_addr = addr;
    cfg;
    rng = Random.State.make [| seed; 0x5e11e27 |];
    conn = None;
    connected = false;
    budget_left_ms = cfg.retry_budget_ms;
    prev_backoff_ms = cfg.base_backoff_ms;
    retries = 0 }

let retry_count rc = rc.retries

let resilient_close rc =
  match rc.conn with
  | Some c ->
    close c;
    rc.conn <- None
  | None -> ()

let rc_conn rc =
  match rc.conn with
  | Some c -> c
  | None ->
    let c =
      connect
        ?timeout_s:
          (if rc.cfg.timeout_s > 0.0 then Some rc.cfg.timeout_s else None)
        rc.r_addr
    in
    rc.conn <- Some c;
    rc.connected <- true;
    c

(* Decorrelated jitter: sleep ~ uniform(base, prev * 3), capped — the
   spread de-synchronises a thundering herd of retrying clients. *)
let next_backoff_ms rc =
  let base = rc.cfg.base_backoff_ms in
  let hi = max (base + 1) (rc.prev_backoff_ms * 3) in
  let ms = min rc.cfg.max_backoff_ms (base + Random.State.int rc.rng (hi - base)) in
  rc.prev_backoff_ms <- ms;
  ms

(* Sleep within the remaining retry budget; returns false once the
   budget is exhausted (the caller then stops retrying). *)
let backoff_sleep rc ms =
  let ms = min ms rc.budget_left_ms in
  if ms <= 0 then false
  else begin
    Bw_obs.Metrics.observe backoff_h (float_of_int ms);
    rc.budget_left_ms <- rc.budget_left_ms - ms;
    Thread.delay (float_of_int ms /. 1000.);
    true
  end

(* Error codes where the server asks for another attempt: overload
   clears, and a crashed worker has already been respawned.  Deadline
   and drain rejections are final; [request_too_large] would only
   recur. *)
let retryable_code = function
  | Some "overloaded" | Some "worker_crashed" -> true
  | Some _ | None -> false

let resilient_request rc (req : Protocol.request) =
  let idempotent = Protocol.idempotent req in
  let line = Json.to_string (Protocol.json_of_request req) in
  (* Sleep, then try again while the budget lasts; [fallback] answers
     once retrying is over.  [asked] counts the retries the server asked
     for, the only ones [max_retries] bounds: a transport failure says
     nothing about the request, so it is retried until the budget is
     spent.  A connect error before any connect succeeded is returned at
     once: no server there has restarted, and none will by waiting. *)
  let rec retry ~asked fallback sleep_ms =
    if idempotent && backoff_sleep rc sleep_ms then begin
      rc.retries <- rc.retries + 1;
      Bw_obs.Metrics.incr retries_c;
      attempt ~asked
    end
    else fallback ()
  and attempt ~asked =
    match rc_conn rc with
    | exception e ->
      let msg = connect_error rc.r_addr e in
      if rc.connected then retry ~asked (fun () -> Error msg) (next_backoff_ms rc)
      else Error msg
    | c -> (
      match request_raw c line with
      | Error msg ->
        (* transport failure or read timeout: the stream may hold a
           half-written reply, so always reconnect before retrying *)
        resilient_close rc;
        retry ~asked (fun () -> Error msg) (next_backoff_ms rc)
      | Ok reply -> (
        match Protocol.response_result reply with
        | Ok _ -> Ok reply
        | Error _ ->
          if
            retryable_code (Protocol.response_error_code reply)
            && asked < rc.cfg.max_retries
          then
            (* honour the server's backoff hint when it gave one,
               jittered so synchronised clients spread back out *)
            let sleep =
              match Protocol.response_retry_after_ms reply with
              | Some ms -> ms + Random.State.int rc.rng (max 1 ((ms / 2) + 1))
              | None -> next_backoff_ms rc
            in
            retry ~asked:(asked + 1) (fun () -> Ok reply) sleep
          else Ok reply))
  in
  attempt ~asked:0

(* Scrape the /metrics endpoint: raw GET line, then read the HTTP
   response until EOF (the server closes after a scrape) and strip the
   header block. *)
let fetch_metrics addr =
  with_connection addr (fun t ->
      send_line t "GET /metrics HTTP/1.0";
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf t.ic 1
         done
       with End_of_file -> ());
      let raw = Buffer.contents buf in
      (* locate the blank line separating HTTP headers from the body *)
      let find_sub sep =
        let n = String.length sep and len = String.length raw in
        let rec go i =
          if i + n > len then None
          else if String.sub raw i n = sep then Some (i + n)
          else go (i + 1)
        in
        go 0
      in
      match
        match find_sub "\r\n\r\n" with
        | Some i -> Some i
        | None -> find_sub "\n\n"
      with
      | Some i -> Ok (String.sub raw i (String.length raw - i))
      | None -> Error "no HTTP header/body separator in metrics response")
