(* Span tracing with per-domain buffers.  See trace.mli. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  cat : string;
  start_us : float;
  dur_us : float;
  tid : int;
  depth : int;
  attrs : (string * value) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let with_enabled b f =
  let old = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag old) f

(* All spans are timestamped against one process-wide epoch so that
   spans from different domains share an axis. *)
let epoch = Unix.gettimeofday ()

(* Per-domain recording state.  Spans are consed onto [spans]; [depth]
   tracks open spans; [last_us] monotonises the wall clock within the
   domain. *)
type buffer = {
  dom_id : int;
  mutable spans : span list;
  mutable depth : int;
  mutable last_us : float;
}

(* Registry of every domain buffer ever created, guarded by a mutex.
   Registration happens once per domain (DLS initialisation), so the
   lock is far off every hot path. *)
let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom_id = (Domain.self () :> int);
          spans = [];
          depth = 0;
          last_us = 0.0 }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let buffer () = Domain.DLS.get buffer_key

let now_in buf =
  let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
  if t < buf.last_us then buf.last_us
  else begin
    buf.last_us <- t;
    t
  end

let now_us () = now_in (buffer ())

type running = {
  r_name : string;
  r_cat : string;
  r_start : float;
  r_depth : int;
  r_buf : buffer;
  r_attrs : (string * value) list;
  mutable r_done : bool;
}

type handle = Disabled | Running of running

let start ?(cat = "") ?(attrs = []) name =
  if not (Atomic.get enabled_flag) then Disabled
  else begin
    let buf = buffer () in
    let depth = buf.depth in
    buf.depth <- depth + 1;
    Running
      { r_name = name;
        r_cat = cat;
        r_start = now_in buf;
        r_depth = depth;
        r_buf = buf;
        r_attrs = attrs;
        r_done = false }
  end

let finish ?(attrs = []) h =
  match h with
  | Disabled -> ()
  | Running r ->
    if not r.r_done then begin
      r.r_done <- true;
      let buf = r.r_buf in
      buf.depth <- r.r_depth;
      let stop = now_in buf in
      buf.spans <-
        { name = r.r_name;
          cat = r.r_cat;
          start_us = r.r_start;
          dur_us = stop -. r.r_start;
          tid = buf.dom_id;
          depth = r.r_depth;
          attrs = r.r_attrs @ attrs }
        :: buf.spans
    end

let with_span ?cat ?attrs ?result_attrs name f =
  let h = start ?cat ?attrs name in
  match f () with
  | v ->
    let attrs =
      match (h, result_attrs) with
      | Running _, Some g -> g v
      | _ -> []
    in
    finish ~attrs h;
    v
  | exception e ->
    finish ~attrs:[ ("error", Str (Printexc.to_string e)) ] h;
    raise e

let collect () =
  Mutex.lock registry_lock;
  let buffers = !registry in
  Mutex.unlock registry_lock;
  List.concat_map (fun b -> b.spans) buffers
  |> List.sort (fun a b -> compare (a.start_us, a.tid) (b.start_us, b.tid))

let reset () =
  Mutex.lock registry_lock;
  let buffers = !registry in
  Mutex.unlock registry_lock;
  List.iter (fun b -> b.spans <- []) buffers
