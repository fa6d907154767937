(* Work-stealing parallel map over domains.  See pool.mli. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ?jobs ?(on_claim = fun _ -> ()) ?retry f items =
  let n = Array.length items in
  let retry = match retry with Some r -> r | None -> fun _ x -> f x in
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> min (default_jobs ()) n
  in
  if jobs <= 1 || n <= 1 then Array.map f items
  else begin
    let results = Array.make n None in
    (* Work-stealing by atomic counter: each slot is written by exactly
       one domain, and the joins below publish the writes before the
       calling domain reads them. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          on_claim i;
          results.(i) <- Some (f items.(i));
          go ()
        end
      in
      go ()
    in
    let domains = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is a worker too; a dying domain (injected
       fault, asynchronous exception) must not take the map down — its
       claimed-but-unfinished slots are swept up below. *)
    (try worker () with _ -> ());
    Array.iter (fun d -> try Domain.join d with _ -> ()) domains;
    Array.mapi
      (fun i -> function Some r -> r | None -> retry i items.(i))
      results
  end

(* --- persistent task pool ------------------------------------------------- *)

(* Long-running worker domains draining a shared queue.  The queue and
   every future are guarded by one mutex each; submission and
   completion are signalled through condition variables, which work
   across domains and threads alike — the serve daemon submits from
   per-connection threads and awaits there while worker domains
   execute. *)

type task = Task : (unit -> 'a) * 'a future -> task

and 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

and 'a state = Pending | Done of 'a | Failed of exn

type t = {
  m : Mutex.t;
  c : Condition.t;
  queue : task Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  pool_jobs : int;
}

exception Worker_crashed of string

let crash_site = "pool.worker.crash"

let () =
  Bw_obs.Fault.declare
    ~doc:"Kill a persistent-pool worker domain at task pickup (serve chaos)"
    crash_site

let respawns_c = Bw_obs.Metrics.counter "pool.worker.respawns"

let fulfill fut v =
  Mutex.lock fut.fm;
  fut.state <- v;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let fulfill_if_pending fut v =
  Mutex.lock fut.fm;
  (match fut.state with
  | Pending ->
    fut.state <- v;
    Condition.broadcast fut.fc
  | Done _ | Failed _ -> ());
  Mutex.unlock fut.fm

let one_line e =
  match String.index_opt (Printexc.to_string e) '\n' with
  | None -> Printexc.to_string e
  | Some i -> String.sub (Printexc.to_string e) 0 i

let worker_loop pool current () =
  let rec go () =
    Mutex.lock pool.m;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.c pool.m
    done;
    if Queue.is_empty pool.queue && pool.stopping then Mutex.unlock pool.m
    else begin
      let (Task (f, fut) as task) = Queue.pop pool.queue in
      current := Some task;
      Mutex.unlock pool.m;
      (* The crash site is crossed after claiming a task but outside the
         per-task confinement below: a fired [Raise] escapes the loop
         and kills the whole domain with the future still pending,
         which is exactly the failure mode supervision exists for. *)
      (match Bw_obs.Fault.check crash_site with
      | Some (Bw_obs.Fault.Delay ms) -> Bw_obs.Fault.sleep_ms ms
      | Some (Bw_obs.Fault.Raise | Bw_obs.Fault.Corrupt) ->
        raise (Bw_obs.Fault.Injected crash_site)
      | None -> ());
      (match f () with
      | v -> fulfill fut (Done v)
      | exception e -> fulfill fut (Failed e));
      current := None;
      go ()
    end
  in
  go ()

(* Supervision: each domain runs [worker_loop] under a handler that
   turns a domain death into (a) failing only the in-flight future and
   (b) spawning a replacement, so a crashed worker never silently
   shrinks the pool.  The replacement is registered under [pool.m] so
   [shutdown] joins it too; no exception ever reaches [Domain.join]. *)
let rec supervised pool () =
  let current = ref None in
  match worker_loop pool current () with
  | () -> ()
  | exception e ->
    (* counted before the future settles, so whoever sees the crash
       also sees it counted *)
    Bw_obs.Metrics.incr respawns_c;
    (match !current with
    | Some (Task (_, fut)) ->
      fulfill_if_pending fut
        (Failed (Worker_crashed (Printf.sprintf "worker domain died: %s" (one_line e))))
    | None -> ());
    Mutex.lock pool.m;
    let respawn = (not pool.stopping) || not (Queue.is_empty pool.queue) in
    if respawn then pool.domains <- Domain.spawn (supervised pool) :: pool.domains;
    Mutex.unlock pool.m

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> max 1 (default_jobs () - 1)
  in
  let pool =
    { m = Mutex.create ();
      c = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      pool_jobs = jobs }
  in
  pool.domains <- List.init jobs (fun _ -> Domain.spawn (supervised pool));
  pool

let jobs pool = pool.pool_jobs

let pending pool =
  Mutex.lock pool.m;
  let n = Queue.length pool.queue in
  Mutex.unlock pool.m;
  n

let submit pool f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  Mutex.lock pool.m;
  if pool.stopping then begin
    Mutex.unlock pool.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push (Task (f, fut)) pool.queue;
  Condition.signal pool.c;
  Mutex.unlock pool.m;
  fut

let await fut =
  Mutex.lock fut.fm;
  let pending () = match fut.state with Pending -> true | _ -> false in
  while pending () do
    Condition.wait fut.fc fut.fm
  done;
  let r = fut.state in
  Mutex.unlock fut.fm;
  match r with
  | Done v -> Ok v
  | Failed e -> Error e
  | Pending -> assert false

let await_exn fut = match await fut with Ok v -> v | Error e -> raise e

let run pool f = await_exn (submit pool f)

let shutdown pool =
  Mutex.lock pool.m;
  pool.stopping <- true;
  Condition.broadcast pool.c;
  Mutex.unlock pool.m;
  (* A worker crashing during the drain still respawns (so queued
     futures get fulfilled), so the domain list can grow while we join:
     keep taking snapshots until no unjoined domain remains. *)
  let joined = ref [] in
  let rec drain () =
    Mutex.lock pool.m;
    let fresh = List.filter (fun d -> not (List.memq d !joined)) pool.domains in
    Mutex.unlock pool.m;
    match fresh with
    | [] -> ()
    | ds ->
      List.iter
        (fun d ->
          (try Domain.join d with _ -> ());
          joined := d :: !joined)
        ds;
      drain ()
  in
  drain ()
