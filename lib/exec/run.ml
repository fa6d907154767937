open Bw_machine

type result = {
  machine : Machine.t;
  observation : Interp.observation;
  counters : Counters.t;
  cache : Cache.t;
  breakdown : Timing.breakdown;
}

let engine_name = function
  | `Compiled -> "compiled"
  | `Interpreted -> "interpreted"

(* Metrics publication happens once per run, after the engines and the
   simulator have finished — the per-access hot paths (Cache.read/write,
   Trace_buffer.record) carry no metrics calls, so observability costs
   nothing per simulated access. *)
let publish_engine_raw ~engine ~flushes ~elements ~flops =
  let pfx = "engine." ^ engine_name engine ^ "." in
  let c name = Bw_obs.Metrics.counter (pfx ^ name) in
  Bw_obs.Metrics.incr (c "runs");
  Bw_obs.Metrics.incr ~by:flushes (c "trace_flushes");
  Bw_obs.Metrics.incr ~by:elements (c "elements");
  Bw_obs.Metrics.incr ~by:flops (c "flops")

let publish_engine ~engine ~sink ~(counters : Counters.t) =
  publish_engine_raw ~engine
    ~flushes:(Trace_buffer.flushes sink.Interp.trace)
    ~elements:(counters.Counters.loads + counters.Counters.stores)
    ~flops:counters.Counters.flops

let publish_cache cache =
  List.iteri
    (fun i (s : Cache.level_stats) ->
      let c name =
        Bw_obs.Metrics.counter (Printf.sprintf "cache.L%d.%s" (i + 1) name)
      in
      let misses = s.Cache.read_misses + s.Cache.write_misses in
      Bw_obs.Metrics.incr
        ~by:(s.Cache.reads + s.Cache.writes - misses)
        (c "hits");
      Bw_obs.Metrics.incr ~by:misses (c "misses");
      Bw_obs.Metrics.incr ~by:s.Cache.writebacks (c "writebacks"))
    (Cache.stats_snapshot cache);
  Bw_obs.Metrics.incr
    ~by:(Cache.memory_lines_in cache)
    (Bw_obs.Metrics.counter "cache.mem.lines_in");
  Bw_obs.Metrics.incr
    ~by:(Cache.memory_lines_out cache)
    (Bw_obs.Metrics.counter "cache.mem.lines_out")

let run_engine ~engine ~sink ?base_of program =
  let observation =
    match engine with
    | `Compiled -> Compile.run ~sink ?base_of program
    | `Interpreted -> Interp.run ~sink ?base_of program
  in
  Interp.flush_sink sink;
  observation

(* Drain one batch of trace records into the cache and the load/store
   counters, applying address translation.  This is the simulation hot
   loop: a tight walk over a flat int array, no per-record closure. *)
let drain_into_cache ~translation ~cache ~counters buf =
  let data = buf.Trace_buffer.data in
  let n = buf.Trace_buffer.len in
  let identity = Translate.is_identity translation in
  let loads = ref 0 and stores = ref 0 in
  for r = 0 to n - 1 do
    let i = r * Trace_buffer.slot_width in
    let kind = Array.unsafe_get data i in
    let addr = Array.unsafe_get data (i + 1) in
    let addr = if identity then addr else Translate.apply translation addr in
    let bytes = Array.unsafe_get data (i + 2) in
    if kind = 0 then begin
      incr loads;
      Cache.read cache ~addr ~bytes
    end
    else begin
      incr stores;
      Cache.write cache ~addr ~bytes
    end
  done;
  counters.Counters.loads <- counters.Counters.loads + !loads;
  counters.Counters.stores <- counters.Counters.stores + !stores

let array_decls (program : Bw_ir.Ast.program) =
  List.filter_map
    (fun d ->
      if Bw_ir.Ast.is_array d then
        Some (d.Bw_ir.Ast.var_name, Bw_ir.Ast.decl_bytes d)
      else None)
    program.Bw_ir.Ast.decls

let simulate ?(flush = true) ?(engine = `Compiled) ~machine
    (program : Bw_ir.Ast.program) =
  Bw_obs.Trace.with_span ~cat:"simulate"
    ~attrs:
      [ ("engine", Bw_obs.Trace.Str (engine_name engine));
        ("machine", Bw_obs.Trace.Str machine.Machine.name) ]
    ~result_attrs:(fun r ->
      [ ("loads", Bw_obs.Trace.Int r.counters.Counters.loads);
        ("stores", Bw_obs.Trace.Int r.counters.Counters.stores);
        ("flops", Bw_obs.Trace.Int r.counters.Counters.flops);
        ("memory_bytes", Bw_obs.Trace.Int (Timing.memory_bytes r.cache));
        ("predicted_s", Bw_obs.Trace.Float r.breakdown.Timing.total) ])
    ("simulate:" ^ program.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let layout =
    Layout.assign ~align_bytes:machine.Machine.array_align_bytes
      ~stagger_bytes:machine.Machine.array_stagger_bytes
      (array_decls program)
  in
  let translation = Machine.fresh_translation machine in
  let cache = Machine.fresh_cache machine in
  let counters = Counters.create () in
  let sink =
    Interp.make_sink
      ~on_trace:(drain_into_cache ~translation ~cache ~counters)
      ()
  in
  let base_of name = Layout.base layout name in
  let observation = run_engine ~engine ~sink ~base_of program in
  counters.Counters.flops <- sink.Interp.flops;
  counters.Counters.int_ops <- sink.Interp.int_ops;
  if flush then Cache.flush cache;
  publish_engine ~engine ~sink ~counters;
  publish_cache cache;
  let breakdown = Timing.predict machine cache counters in
  { machine; observation; counters; cache; breakdown }

let observe ?(engine = `Compiled) program =
  let counters = Counters.create () in
  let sink =
    Interp.make_sink
      ~on_trace:(fun buf ->
        let data = buf.Trace_buffer.data in
        let n = buf.Trace_buffer.len in
        let loads = ref 0 in
        for r = 0 to n - 1 do
          if Array.unsafe_get data (r * Trace_buffer.slot_width) = 0 then incr loads
        done;
        counters.Counters.loads <- counters.Counters.loads + !loads;
        counters.Counters.stores <- counters.Counters.stores + (n - !loads))
      ()
  in
  let observation = run_engine ~engine ~sink program in
  counters.Counters.flops <- sink.Interp.flops;
  counters.Counters.int_ops <- sink.Interp.int_ops;
  publish_engine ~engine ~sink ~counters;
  (observation, counters)

let reuse_profile ?(granularity = 32) ?(engine = `Compiled)
    (program : Bw_ir.Ast.program) =
  let profile = Reuse.create ~granularity () in
  let layout = Layout.assign ~stagger_bytes:0 (array_decls program) in
  let sink =
    Interp.make_sink
      ~on_trace:
        (Trace_buffer.drain ~f:(fun _kind addr _bytes ->
             Reuse.access profile ~addr))
      ()
  in
  ignore
    (run_engine ~engine ~sink
       ~base_of:(fun name -> Layout.base layout name)
       program);
  profile

(* --- capture once, replay many -------------------------------------------- *)

(* Captured traces use a machine-independent canonical address space:
   array [i] (declaration order) lives at base [(i + 1) lsl shift] with
   [1 lsl shift >= decl_bytes], so replay recovers (array, offset) with
   one shift/mask — no per-record search — and re-bases onto any
   machine's layout before applying that machine's translation. *)
type capture = {
  captured_program : Bw_ir.Ast.program;
  captured_engine : [ `Compiled | `Interpreted ];
  captured_observation : Interp.observation;
  captured_flops : int;
  captured_int_ops : int;
  arrays : (string * int) list;
  shift : int;
  store : Trace_store.t;
}

(* Smallest shift whose span covers the largest array; floored at 12 so
   canonical bases stay page-aligned (hence line-aligned at any real
   granularity), keeping block partitions identical across layouts. *)
let canonical_shift arrays =
  let max_bytes = List.fold_left (fun acc (_, b) -> max acc b) 1 arrays in
  let rec go s = if 1 lsl s >= max_bytes then s else go (s + 1) in
  go 12

let capture ?(engine = `Compiled) (program : Bw_ir.Ast.program) =
  Bw_obs.Trace.with_span ~cat:"capture"
    ~attrs:[ ("engine", Bw_obs.Trace.Str (engine_name engine)) ]
    ~result_attrs:(fun c ->
      [ ("records", Bw_obs.Trace.Int (Trace_store.records c.store));
        ( "encoded_bytes",
          Bw_obs.Trace.Int (Trace_store.encoded_bytes c.store) ) ])
    ("capture:" ^ program.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let arrays = array_decls program in
  let shift = canonical_shift arrays in
  let bases = Hashtbl.create 16 in
  List.iteri
    (fun i (name, _) -> Hashtbl.replace bases name ((i + 1) lsl shift))
    arrays;
  let store = Trace_store.create () in
  let sink =
    Interp.make_sink ~on_trace:(fun buf -> Trace_store.append_buffer store buf) ()
  in
  let observation =
    run_engine ~engine ~sink ~base_of:(Hashtbl.find bases) program
  in
  publish_engine_raw ~engine
    ~flushes:(Trace_buffer.flushes sink.Interp.trace)
    ~elements:(Trace_store.records store)
    ~flops:sink.Interp.flops;
  Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "trace_store.captures");
  Bw_obs.Metrics.incr
    ~by:(Trace_store.records store)
    (Bw_obs.Metrics.counter "trace_store.records");
  Bw_obs.Metrics.incr
    ~by:(Trace_store.encoded_bytes store)
    (Bw_obs.Metrics.counter "trace_store.encoded_bytes");
  { captured_program = program;
    captured_engine = engine;
    captured_observation = observation;
    captured_flops = sink.Interp.flops;
    captured_int_ops = sink.Interp.int_ops;
    arrays;
    shift;
    store }

let replay ?(flush = true) ~machine c =
  Bw_obs.Trace.with_span ~cat:"replay"
    ~attrs:[ ("machine", Bw_obs.Trace.Str machine.Machine.name) ]
    ~result_attrs:(fun r ->
      [ ("loads", Bw_obs.Trace.Int r.counters.Counters.loads);
        ("stores", Bw_obs.Trace.Int r.counters.Counters.stores);
        ("memory_bytes", Bw_obs.Trace.Int (Timing.memory_bytes r.cache)) ])
    ("replay:" ^ c.captured_program.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let layout =
    Layout.assign ~align_bytes:machine.Machine.array_align_bytes
      ~stagger_bytes:machine.Machine.array_stagger_bytes c.arrays
  in
  let machine_bases =
    Array.of_list (List.map (fun (name, _) -> Layout.base layout name) c.arrays)
  in
  let shift = c.shift in
  let mask = (1 lsl shift) - 1 in
  let remap addr =
    Array.unsafe_get machine_bases ((addr lsr shift) - 1) + (addr land mask)
  in
  let translation = Machine.fresh_translation machine in
  let cache = Machine.fresh_cache machine in
  let counters = Counters.create () in
  Trace_store.replay ~remap c.store ~translation ~cache ~counters;
  counters.Counters.flops <- c.captured_flops;
  counters.Counters.int_ops <- c.captured_int_ops;
  if flush then Cache.flush cache;
  Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "trace_store.replays");
  publish_cache cache;
  let breakdown = Timing.predict machine cache counters in
  { machine;
    observation = c.captured_observation;
    counters;
    cache;
    breakdown }

let replay_many ?jobs ?flush ~machines c =
  match machines with
  | [] -> []
  | [ machine ] -> [ replay ?flush ~machine c ]
  | _ ->
    Pool.map ?jobs
      (fun machine -> replay ?flush ~machine c)
      (Array.of_list machines)
    |> Array.to_list

let simulate_many ?jobs ?flush ?engine ~machines program =
  let c = capture ?engine program in
  replay_many ?jobs ?flush ~machines c

let reuse_of_capture ?(granularity = 32) c =
  let profile = Reuse.create ~granularity () in
  Trace_store.iter c.store ~f:(fun _kind addr _bytes ->
      Reuse.access profile ~addr);
  profile

let equal_result a b =
  a.machine.Machine.name = b.machine.Machine.name
  && a.counters = b.counters
  && Cache.stats_snapshot a.cache = Cache.stats_snapshot b.cache
  && Cache.memory_lines_in a.cache = Cache.memory_lines_in b.cache
  && Cache.memory_lines_out a.cache = Cache.memory_lines_out b.cache
  && a.breakdown = b.breakdown
  && Interp.equal_observation a.observation b.observation

let effective_bandwidth r =
  Timing.effective_bandwidth r.machine r.cache r.counters

let nominal_bandwidth r =
  (* STREAM-style accounting: 8 bytes read per load, 8 written per store;
     write-allocate fills and conflict refetches are invisible to it *)
  let nominal = 8 * (r.counters.Counters.loads + r.counters.Counters.stores) in
  let t = r.breakdown.Timing.total in
  if t <= 0.0 then 0.0 else float_of_int nominal /. t

let seconds r = r.breakdown.Timing.total

let program_balance r =
  let flops = float_of_int (max 1 r.counters.Counters.flops) in
  let register = float_of_int (Counters.register_bytes r.counters) /. flops in
  let names = Machine.boundary_names r.machine in
  let boundary_values =
    List.init (Cache.level_count r.cache) (fun i ->
        if i = Cache.level_count r.cache - 1 then
          float_of_int (Timing.memory_bytes r.cache) /. flops
        else float_of_int (Cache.boundary_bytes r.cache i) /. flops)
  in
  List.combine names (register :: boundary_values)
