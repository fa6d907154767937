(* Bounded, LRU-evicting, single-flight result cache.  See cache.mli. *)

type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  m : Mutex.t;
  c : Condition.t;  (* signalled when an in-flight computation settles *)
  table : (string, 'a entry) Hashtbl.t;
  in_flight : (string, unit) Hashtbl.t;
  capacity : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable joins : int;
}

let metric name =
  Bw_obs.Metrics.incr (Bw_obs.Metrics.counter ("serve.cache." ^ name))

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { m = Mutex.create ();
    c = Condition.create ();
    table = Hashtbl.create (min capacity 64);
    in_flight = Hashtbl.create 8;
    capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    joins = 0 }

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Evict the least-recently-used entry.  O(table size) scan: capacities
   are small (hundreds) and eviction happens at most once per insert. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, old) when old.tick <= e.tick -> acc
        | _ -> Some (k, e))
      t.table None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1;
    metric "eviction"
  | None -> ()

let insert t key value =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.capacity then evict_one t;
    let e = { value; tick = 0 } in
    touch t e;
    Hashtbl.add t.table key e
  end

(* The single-flight protocol: under the lock, either the value is
   cached (hit), or somebody is computing it (wait on the condition,
   then re-check), or we claim it ourselves by marking it in-flight.
   The computation itself runs unlocked; completion — success or
   exception — clears the mark and broadcasts.  A failed computation
   caches nothing: one of the waiters becomes the next computer, so a
   transient failure cannot poison the key. *)
let find_or_compute t ~key f =
  Mutex.lock t.m;
  let rec claim ~joined =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      touch t e;
      t.hits <- t.hits + 1;
      metric "hit";
      if joined then begin
        t.joins <- t.joins + 1;
        metric "join"
      end;
      Mutex.unlock t.m;
      (e.value, if joined then `Joined else `Hit)
    | None ->
      if Hashtbl.mem t.in_flight key then begin
        Condition.wait t.c t.m;
        claim ~joined:true
      end
      else begin
        Hashtbl.add t.in_flight key ();
        t.misses <- t.misses + 1;
        metric "miss";
        Mutex.unlock t.m;
        let outcome = try Ok (f ()) with e -> Error e in
        Mutex.lock t.m;
        Hashtbl.remove t.in_flight key;
        (match outcome with Ok v -> insert t key v | Error _ -> ());
        Condition.broadcast t.c;
        Mutex.unlock t.m;
        (match outcome with
        | Ok v -> (v, `Miss)
        | Error e -> raise e)
      end
  in
  claim ~joined:false

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  single_flight_joins : int;
}

let stats t =
  Mutex.lock t.m;
  let s =
    { size = Hashtbl.length t.table;
      capacity = t.capacity;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      single_flight_joins = t.joins }
  in
  Mutex.unlock t.m;
  s

let mem t key =
  Mutex.lock t.m;
  let r = Hashtbl.mem t.table key in
  Mutex.unlock t.m;
  r
