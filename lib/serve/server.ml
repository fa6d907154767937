(* The bwc serve daemon: accept loop, per-connection threads, compute
   on the persistent domain pool, content-addressed result cache,
   single-flight capture cache for simulate, graceful drain.  See
   server.mli. *)

module Json = Bw_core.Json

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

type config = {
  addr : addr;
  jobs : int option;
  cache_capacity : int;
  capture_capacity : int;
  verbose : bool;
  max_queue : int;
  degrade_queue : int;
  default_deadline_ms : int;
  max_deadline_ms : int;
  idle_timeout_s : float;
  max_request_bytes : int;
}

let default_config addr =
  { addr; jobs = None; cache_capacity = 512; capture_capacity = 32;
    verbose = false;
    max_queue = 64;
    degrade_queue = 16;
    default_deadline_ms = 30_000;
    max_deadline_ms = 300_000;
    idle_timeout_s = 60.0;
    max_request_bytes = 4 * 1024 * 1024 }

type conn = {
  fd : Unix.file_descr;
  mutable busy : bool;
  mutable last_active : float;
  conn_id : int;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  actual_addr : addr;
  pool : Bw_exec.Pool.t;
  results : Json.t Cache.t;
  captures : Bw_exec.Run.capture Cache.t;
  drain_requested : bool Atomic.t;
  stopping : bool Atomic.t;
  cm : Mutex.t;
  cc : Condition.t;
  conns : (int, conn) Hashtbl.t;
  compute_inflight : int Atomic.t;
  inflight : int Atomic.t;
  mutable next_conn : int;
  mutable accept_thread : Thread.t option;
  mutable watchdog_thread : Thread.t option;
  started_at : float;
}

(* --- metrics ---------------------------------------------------------------- *)

let requests_c = Bw_obs.Metrics.counter "serve.requests"
let errors_c = Bw_obs.Metrics.counter "serve.errors"
let connections_c = Bw_obs.Metrics.counter "serve.connections"
let latency_h = Bw_obs.Metrics.histogram "serve.latency_ms"
let inflight_g = Bw_obs.Metrics.gauge "serve.inflight"
let cache_size_g = Bw_obs.Metrics.gauge "serve.cache.size"
let queue_depth_g = Bw_obs.Metrics.gauge "serve.queue.depth"
let shed_c = Bw_obs.Metrics.counter "serve.queue.shed"
let degraded_c = Bw_obs.Metrics.counter "serve.queue.degraded"
let deadline_expired_c = Bw_obs.Metrics.counter "serve.deadline.expired"
let watchdog_closed_c = Bw_obs.Metrics.counter "serve.watchdog.closed"
let oversized_c = Bw_obs.Metrics.counter "serve.request.oversized"

(* --- chaos sites ------------------------------------------------------------- *)

let compute_delay_site = "serve.compute.delay"
let socket_stall_site = "serve.socket.stall"
let socket_close_site = "serve.socket.close"
let capture_site = "serve.capture"

let () =
  Bw_obs.Fault.declare
    ~doc:"Straggler compute: sleep inside the pool task (delay action)"
    compute_delay_site;
  Bw_obs.Fault.declare
    ~doc:"Stall mid-response: write half the reply, sleep, write the rest"
    socket_stall_site;
  Bw_obs.Fault.declare
    ~doc:"Drop the connection after writing half a reply" socket_close_site;
  Bw_obs.Fault.declare
    ~doc:"Fail a simulate capture inside the capture cache (nothing cached)"
    capture_site

(* --- request processing ----------------------------------------------------- *)

let uptime t = Unix.gettimeofday () -. t.started_at

let ping_payload t =
  let stats = Cache.stats t.results in
  Json.Obj
    [ ("pong", Json.Bool true);
      ("version", Json.Int Protocol.version);
      ("pid", Json.Int (Unix.getpid ()));
      ("uptime_seconds", Json.Float (uptime t));
      ("pool_jobs", Json.Int (Bw_exec.Pool.jobs t.pool));
      ("queue_depth", Json.Int (max 0 (Atomic.get t.compute_inflight - Bw_exec.Pool.jobs t.pool)));
      ( "cache",
        Json.Obj
          [ ("size", Json.Int stats.Cache.size);
            ("capacity", Json.Int stats.Cache.capacity);
            ("hits", Json.Int stats.Cache.hits);
            ("misses", Json.Int stats.Cache.misses);
            ("evictions", Json.Int stats.Cache.evictions);
            ("single_flight_joins", Json.Int stats.Cache.single_flight_joins)
          ] ) ]

(* The program's capture, taken once per (digest, engine) and shared
   across requests through the single-flight capture cache.  The
   deadline check and the fault site sit inside the cache's compute: an
   expired request does not start a capture it cannot wait for, and a
   failed capture caches nothing, so one waiter retries it. *)
let shared_capture t req ~deadline program () =
  fst
    (Cache.find_or_compute t.captures ~key:(Protocol.capture_key req ~program)
       (fun () ->
         Handle.check_deadline deadline;
         Bw_obs.Fault.cut capture_site;
         Bw_exec.Run.capture ~engine:req.Protocol.engine program))

(* One-line error message from an arbitrary handler exception. *)
let one_line e =
  let s = Printexc.to_string e in
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Pool tasks queued beyond what the worker domains can be running
   right now — the backlog a new request would join. *)
let pending_depth t =
  max 0 (Atomic.get t.compute_inflight - Bw_exec.Pool.jobs t.pool)

(* Absolute deadline instant for a request: its own budget clamped to
   the server cap, or the server default (0 disables). *)
let effective_deadline t (req : Protocol.request) =
  let ms =
    match req.Protocol.deadline_ms with
    | Some ms -> min ms t.config.max_deadline_ms
    | None -> t.config.default_deadline_ms
  in
  if ms <= 0 then None
  else Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.))

(* Crude queueing estimate for the overload hint: excess backlog times
   a nominal per-request cost, clamped to something a client can
   reasonably sleep. *)
let retry_after_ms t ~depth =
  min 5000 (max 50 (50 * (depth - t.config.max_queue + 1)))

let structured_error t (req : Protocol.request) e =
  match e with
  | Handle.Deadline_exceeded ->
    Bw_obs.Metrics.incr deadline_expired_c;
    Protocol.error_response ?id:req.Protocol.id ~code:"deadline_exceeded"
      "deadline exceeded before the result was ready"
  | Bw_exec.Pool.Worker_crashed msg ->
    if t.config.verbose then
      Format.eprintf "bwc serve: worker crash surfaced to a request: %s@." msg;
    Protocol.error_response ?id:req.Protocol.id ~code:"worker_crashed" msg
  | e -> Protocol.error_response ?id:req.Protocol.id (one_line e)

let compute_op t (req : Protocol.request) ~degrade =
  match
    if Protocol.needs_program req then
      Result.map Option.some (Protocol.load_program req)
    else Ok None
  with
  | Error msg ->
    Protocol.error_response ?id:req.Protocol.id ~code:"bad_request" msg
  | Ok program -> (
    match Protocol.resolve_machines req with
    | Error msg ->
      Protocol.error_response ?id:req.Protocol.id ~code:"bad_request" msg
    | Ok machines -> (
      let deadline = effective_deadline t req in
      match (degrade, program) with
      | true, Some p -> (
        (* Load shed, fidelity first: answer inline from the analytic
           tier — no pool, no queue, and deliberately no cache in
           either direction, so degraded payloads can never alias the
           byte-identical full-fidelity cached answers. *)
        Bw_obs.Metrics.incr degraded_c;
        match Handle.degraded req ~machines p with
        | payload ->
          Protocol.ok_response ?id:req.Protocol.id ~degraded:"analytic"
            ~op:req.Protocol.op ~cached:false payload
        | exception e -> structured_error t req e)
      | _ -> (
        Atomic.incr t.compute_inflight;
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.compute_inflight)
        @@ fun () ->
        let work () =
          Bw_exec.Pool.run t.pool (fun () ->
              (* dequeue-time enforcement: a request whose deadline
                 passed while queued is never computed *)
              Handle.check_deadline deadline;
              (match Bw_obs.Fault.check compute_delay_site with
              | Some (Bw_obs.Fault.Delay ms) -> Bw_obs.Fault.sleep_ms ms
              | Some (Bw_obs.Fault.Raise | Bw_obs.Fault.Corrupt) ->
                Bw_obs.Fault.sleep_ms 250
              | None -> ());
              let capture =
                match program with
                | Some p when req.Protocol.op = Protocol.Simulate ->
                  Some (shared_capture t req ~deadline p)
                | _ -> None
              in
              Handle.compute ?deadline ?capture req ~machines program)
        in
        match
          match Protocol.cache_key req ~program with
          | Some key when not req.Protocol.no_cache ->
            let payload, how = Cache.find_or_compute t.results ~key work in
            (payload, how <> `Miss)
          | _ -> (work (), false)
        with
        | payload, cached ->
          Bw_obs.Metrics.set cache_size_g
            (float_of_int (Cache.stats t.results).Cache.size);
          Protocol.ok_response ?id:req.Protocol.id ~op:req.Protocol.op ~cached
            payload
        | exception e -> structured_error t req e)))

let initiate_shutdown t =
  if Atomic.compare_and_set t.stopping false true then begin
    if t.config.verbose then Format.eprintf "bwc serve: draining...@.";
    (* Idle connections are parked in input_line; shut their read side
       down so they see EOF.  Busy ones finish their current request
       and notice the flag afterwards. *)
    Mutex.lock t.cm;
    Hashtbl.iter
      (fun _ c ->
        if not c.busy then
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      t.conns;
    Mutex.unlock t.cm
  end

let request_shutdown t = Atomic.set t.drain_requested true

(* Process one request line; returns the response string (without
   newline) and whether to keep the connection. *)
let respond_to_line t line =
  let json_reply j = (Json.to_string j, `Keep) in
  if String.length line >= 4 && String.sub line 0 4 = "GET " then
    (* /metrics-style scrape: minimal HTTP, then close. *)
    let body = Expose.render () in
    ( Printf.sprintf
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4\r\n\
         Content-Length: %d\r\n\r\n%s"
        (String.length body) body,
      `Close )
  else
    match Protocol.request_of_string line with
    | Error msg ->
      Bw_obs.Metrics.incr errors_c;
      json_reply (Protocol.error_response msg)
    | Ok req -> (
      let id = req.Protocol.id in
      let op = req.Protocol.op in
      match op with
      | Protocol.Ping ->
        json_reply (Protocol.ok_response ?id ~op ~cached:false (ping_payload t))
      | Protocol.Metrics ->
        json_reply
          (Protocol.ok_response ?id ~op ~cached:false
             (Json.Obj [ ("text", Json.String (Expose.render ())) ]))
      | Protocol.Shutdown ->
        request_shutdown t;
        json_reply
          (Protocol.ok_response ?id ~op ~cached:false
             (Json.Obj [ ("draining", Json.Bool true) ]))
      | _ ->
        (* Admission control for compute ops, in strictness order:
           draining servers reject; a backlog past [max_queue] sheds
           with a retry hint; past [degrade_queue], degradable ops are
           answered inline from the analytic tier instead of queueing;
           otherwise normal admission. *)
        if Atomic.get t.stopping then begin
          Bw_obs.Metrics.incr errors_c;
          json_reply
            (Protocol.error_response ?id ~code:"shutting_down"
               "server is draining; request not admitted")
        end
        else begin
          let depth = pending_depth t in
          Bw_obs.Metrics.set queue_depth_g (float_of_int depth);
          if depth >= t.config.max_queue then begin
            Bw_obs.Metrics.incr shed_c;
            Bw_obs.Metrics.incr errors_c;
            json_reply
              (Protocol.error_response ?id ~code:"overloaded"
                 ~retry_after_ms:(retry_after_ms t ~depth)
                 (Printf.sprintf "backlog %d at capacity %d" depth
                    t.config.max_queue))
          end
          else
            let degrade =
              depth >= t.config.degrade_queue && Protocol.degradable op
            in
            match compute_op t req ~degrade with
            | response ->
              (match Json.member "status" response with
              | Some (Json.String "error") -> Bw_obs.Metrics.incr errors_c
              | _ -> ());
              json_reply response
            | exception e ->
              (* belt and braces: compute_op already confines handler
                 exceptions; this catches protocol-layer surprises *)
              Bw_obs.Metrics.incr errors_c;
              json_reply (Protocol.error_response ?id (one_line e))
        end)

(* --- connection lifecycle ---------------------------------------------------- *)

let unregister t conn =
  Mutex.lock t.cm;
  Hashtbl.remove t.conns conn.conn_id;
  Condition.broadcast t.cc;
  Mutex.unlock t.cm;
  (try Unix.close conn.fd with _ -> ())

(* Bounded replacement for [input_line]: a single request line longer
   than [max] bytes stops being buffered the moment it crosses the
   limit, so one connection cannot balloon server memory.  A partial
   line at EOF is returned like [input_line] would. *)
let read_request_line ic ~max =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception (End_of_file | Sys_error _) ->
      if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max then `Too_long
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

(* Write one reply, crossing the socket chaos sites: [socket.close]
   drops the connection after half the bytes; [socket.stall] sleeps
   mid-reply (the stall a client read timeout must survive).  Returns
   whether the full reply was written.  The HTTP metrics scrape is
   exempt — chaos must not blind the observability channel watching
   it. *)
let write_reply conn oc ~chaos_exempt reply =
  let finish () =
    output_char oc '\n';
    flush oc;
    true
  in
  match
    if chaos_exempt then begin
      output_string oc reply;
      finish ()
    end
    else
      match Bw_obs.Fault.check socket_close_site with
      | Some _ ->
        let half = String.length reply / 2 in
        output_string oc (String.sub reply 0 half);
        flush oc;
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        false
      | None -> (
        match Bw_obs.Fault.check socket_stall_site with
        | Some a ->
          let ms = match a with Bw_obs.Fault.Delay ms -> ms | _ -> 250 in
          let half = String.length reply / 2 in
          output_string oc (String.sub reply 0 half);
          flush oc;
          Thread.delay (float_of_int ms /. 1000.);
          output_string oc
            (String.sub reply half (String.length reply - half));
          finish ()
        | None ->
          output_string oc reply;
          finish ())
  with
  | wrote -> wrote
  | exception Sys_error _ -> false

let conn_loop t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let oc = Unix.out_channel_of_descr conn.fd in
  let rec go () =
    match read_request_line ic ~max:t.config.max_request_bytes with
    | `Eof -> ()
    | `Too_long ->
      (* the rest of the oversized line was never read: answer
         structurally and drop the (unsynchronisable) connection *)
      Bw_obs.Metrics.incr oversized_c;
      Bw_obs.Metrics.incr errors_c;
      ignore
        (write_reply conn oc ~chaos_exempt:false
           (Json.to_string
              (Protocol.error_response ~code:"request_too_large"
                 (Printf.sprintf "request line exceeds %d bytes"
                    t.config.max_request_bytes))))
    | `Line line when String.trim line = "" ->
      conn.last_active <- Unix.gettimeofday ();
      if not (Atomic.get t.stopping) then go ()
    | `Line line -> (
      conn.busy <- true;
      conn.last_active <- Unix.gettimeofday ();
      Bw_obs.Metrics.incr requests_c;
      Bw_obs.Metrics.set inflight_g
        (float_of_int (Atomic.fetch_and_add t.inflight 1 + 1));
      let t0 = Unix.gettimeofday () in
      let reply, action = respond_to_line t line in
      let wrote =
        write_reply conn oc ~chaos_exempt:(action = `Close) reply
      in
      Bw_obs.Metrics.observe latency_h
        (1e3 *. (Unix.gettimeofday () -. t0));
      Bw_obs.Metrics.set inflight_g
        (float_of_int (Atomic.fetch_and_add t.inflight (-1) - 1));
      conn.busy <- false;
      conn.last_active <- Unix.gettimeofday ();
      match action with
      | `Close -> ()
      | `Keep -> if wrote && not (Atomic.get t.stopping) then go ())
  in
  (try go () with _ -> ());
  unregister t conn

let register_conn t fd =
  Mutex.lock t.cm;
  let conn =
    { fd; busy = false; last_active = Unix.gettimeofday ();
      conn_id = t.next_conn }
  in
  t.next_conn <- t.next_conn + 1;
  Hashtbl.add t.conns conn.conn_id conn;
  Mutex.unlock t.cm;
  Bw_obs.Metrics.incr connections_c;
  ignore (Thread.create (fun () -> conn_loop t conn) ())

(* Half-dead and slow-loris connections: a watchdog sweeps every 250 ms
   and shuts down connections with no traffic for [idle_timeout_s]
   while not executing a request.  The shutdown happens under [t.cm]
   while the conn is still registered, so it cannot race a concurrent
   [unregister]'s close and hit a recycled descriptor. *)
let watchdog_loop t =
  let rec go () =
    if not (Atomic.get t.stopping) then begin
      Thread.delay 0.25;
      let timeout = t.config.idle_timeout_s in
      if timeout > 0.0 then begin
        let now = Unix.gettimeofday () in
        Mutex.lock t.cm;
        Hashtbl.iter
          (fun _ c ->
            if (not c.busy) && now -. c.last_active > timeout then begin
              Bw_obs.Metrics.incr watchdog_closed_c;
              if t.config.verbose then
                Format.eprintf
                  "bwc serve: watchdog closing idle connection #%d@."
                  c.conn_id;
              (* push its idle clock forward so an unregister still in
                 flight is not counted as a second close *)
              c.last_active <- now;
              (* wake the blocked reader with EOF; its thread closes
                 the descriptor on the way out *)
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ()
            end)
          t.conns;
        Mutex.unlock t.cm
      end;
      go ()
    end
  in
  go ()

let accept_loop t =
  let rec go () =
    if Atomic.get t.drain_requested then initiate_shutdown t;
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> register_conn t fd
        | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ();
  (try Unix.close t.listen_fd with _ -> ())

(* --- lifecycle --------------------------------------------------------------- *)

let bind_listen addr =
  match addr with
  | Unix_sock path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    (fd, addr)
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> failwith (Printf.sprintf "unknown host '%s'" host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 128;
    let actual_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Tcp (host, actual_port))

let start config =
  (* A peer dropping its socket mid-write (chaos faults, crashed
     clients) must surface as Sys_error/EPIPE, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd, actual_addr = bind_listen config.addr in
  let t =
    { config;
      listen_fd;
      actual_addr;
      pool = Bw_exec.Pool.create ?jobs:config.jobs ();
      results = Cache.create ~capacity:config.cache_capacity ();
      captures =
        Cache.create ~metric_prefix:"serve.capture_cache."
          ~capacity:config.capture_capacity ();
      drain_requested = Atomic.make false;
      stopping = Atomic.make false;
      cm = Mutex.create ();
      cc = Condition.create ();
      conns = Hashtbl.create 32;
      compute_inflight = Atomic.make 0;
      inflight = Atomic.make 0;
      next_conn = 0;
      accept_thread = None;
      watchdog_thread = None;
      started_at = Unix.gettimeofday () }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.watchdog_thread <- Some (Thread.create (fun () -> watchdog_loop t) ());
  t

let addr t = t.actual_addr

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.watchdog_thread with Some th -> Thread.join th | None -> ());
  (* drain: every connection thread unregisters itself when done *)
  Mutex.lock t.cm;
  while Hashtbl.length t.conns > 0 do
    Condition.wait t.cc t.cm
  done;
  Mutex.unlock t.cm;
  Bw_exec.Pool.shutdown t.pool;
  match t.actual_addr with
  | Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ()

let stop t =
  request_shutdown t;
  wait t

(* SIGTERM/SIGINT only set a flag; the accept loop notices within its
   select timeout and performs the actual drain outside any lock — a
   handler that took mutexes could deadlock against the thread it
   interrupted. *)
let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> request_shutdown t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler
