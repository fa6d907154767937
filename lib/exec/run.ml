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

(* Base of each array (declaration order) in [machine]'s layout. *)
let layout_bases machine arrays =
  let layout =
    Layout.assign ~align_bytes:machine.Machine.array_align_bytes
      ~stagger_bytes:machine.Machine.array_stagger_bytes arrays
  in
  Array.of_list (List.map (fun (name, _) -> Layout.base layout name) arrays)

(* Canonical address space, shared by captures and by streamed runs
   whose machines lay arrays out differently: array [i] (declaration
   order) lives at base [(i + 1) lsl shift] with [1 lsl shift >=
   decl_bytes], so a machine recovers (array, offset) with one
   shift/mask — no per-record search — and re-bases onto its own
   layout before applying its translation.  The shift is the smallest
   whose span covers the largest array, floored at 12 so canonical bases
   stay page-aligned (hence line-aligned at any real granularity),
   keeping block partitions identical across layouts. *)
let canonical_shift arrays =
  let max_bytes = List.fold_left (fun acc (_, b) -> max acc b) 1 arrays in
  let rec go s = if 1 lsl s >= max_bytes then s else go (s + 1) in
  go 12

let canonical_bases arrays shift =
  Array.of_list (List.mapi (fun i _ -> (i + 1) lsl shift) arrays)

(* The engine's [base_of] for arrays placed at [bases]. *)
let base_lookup arrays bases =
  let index = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace index name bases.(i)) arrays;
  Hashtbl.find index

(* [rebase ~bases ~shift drain] drains batches of canonical addresses
   (array [i] at [(i + 1) lsl shift]) through [drain] re-based onto
   [bases], by way of a private copy of each batch: a shared batch stays
   canonical for the other machines, and [drain]'s loop stays the one a
   single layout runs.  The copy has the engine sink's capacity, so it
   too lives and dies on the minor heap. *)
let rebase ~bases ~shift drain =
  let mask = (1 lsl shift) - 1 in
  let copy = Trace_buffer.create ~on_full:ignore () in
  let data = copy.Trace_buffer.data in
  fun (buf : Trace_buffer.t) ->
    let n = buf.Trace_buffer.len in
    Array.blit buf.Trace_buffer.data 0 data 0 (n * Trace_buffer.slot_width);
    for r = 0 to n - 1 do
      let i = (r * Trace_buffer.slot_width) + 1 in
      let addr = Array.unsafe_get data i in
      Array.unsafe_set data i
        (Array.unsafe_get bases ((addr lsr shift) - 1) + (addr land mask))
    done;
    copy.Trace_buffer.len <- n;
    drain copy

(* One machine's simulation state — fresh translation, cache and
   counters — and [finish], which evaluates the timing model once the
   machine has seen the whole reference stream, then retires the cache:
   the result keeps its statistics, and its slot storage goes back to
   the free list for the next run. *)
let lane machine =
  let translation = Machine.fresh_translation machine in
  let cache = Machine.fresh_cache machine in
  let counters = Counters.create () in
  let finish ~flops ~int_ops observation =
    counters.Counters.flops <- flops;
    counters.Counters.int_ops <- int_ops;
    Cache.flush cache;
    publish_cache cache;
    let breakdown = Timing.predict machine cache counters in
    Cache.retire cache;
    { machine; observation; counters; cache; breakdown }
  in
  (translation, cache, counters, finish)

(* One engine run streams into every machine: each trace buffer drains
   into each machine's lane in turn.  When all machines lay the arrays
   out alike (always, for one machine) the engine writes that layout's
   addresses; otherwise it writes canonical ones and each lane re-bases
   a copy. *)
let simulate_many ?(engine = `Compiled) ~machines (program : Bw_ir.Ast.program)
    =
  match machines with
  | [] -> []
  | _ ->
    Bw_obs.Trace.with_span ~cat:"simulate"
      ~attrs:
        [ ("engine", Bw_obs.Trace.Str (engine_name engine));
          ( "machine",
            Bw_obs.Trace.Str
              (String.concat ","
                 (List.map (fun m -> m.Machine.name) machines)) ) ]
      ~result_attrs:(function
        | [ r ] ->
          [ ("loads", Bw_obs.Trace.Int r.counters.Counters.loads);
            ("stores", Bw_obs.Trace.Int r.counters.Counters.stores);
            ("flops", Bw_obs.Trace.Int r.counters.Counters.flops);
            ("memory_bytes", Bw_obs.Trace.Int (Timing.memory_bytes r.cache));
            ("predicted_s", Bw_obs.Trace.Float r.breakdown.Timing.total) ]
        | _ -> [])
      ("simulate:" ^ program.Bw_ir.Ast.prog_name)
    @@ fun () ->
    let arrays = array_decls program in
    let bases = List.map (fun machine -> layout_bases machine arrays) machines in
    let engine_bases, rebased =
      match bases with
      | first :: rest when List.for_all (( = ) first) rest ->
        (first, fun _ drain -> drain)
      | _ ->
        let shift = canonical_shift arrays in
        (canonical_bases arrays shift, fun bases -> rebase ~bases ~shift)
    in
    let lanes =
      List.map2
        (fun machine b ->
          let translation, cache, counters, finish = lane machine in
          (rebased b (drain_into_cache ~translation ~cache ~counters), finish))
        machines bases
    in
    let sink =
      Interp.make_sink
        ~on_trace:(fun buf -> List.iter (fun (drain, _) -> drain buf) lanes)
        ()
    in
    let observation =
      run_engine ~engine ~sink ~base_of:(base_lookup arrays engine_bases)
        program
    in
    let results =
      List.map
        (fun (_, finish) ->
          finish ~flops:sink.Interp.flops ~int_ops:sink.Interp.int_ops
            observation)
        lanes
    in
    publish_engine ~engine ~sink ~counters:(List.hd results).counters;
    results

let simulate ?engine ~machine program =
  List.hd (simulate_many ?engine ~machines:[ machine ] program)

(* Add one batch's loads and stores to [counters]. *)
let count_batch counters (buf : Trace_buffer.t) =
  let data = buf.Trace_buffer.data in
  let n = buf.Trace_buffer.len in
  let loads = ref 0 in
  for r = 0 to n - 1 do
    if
      Array.unsafe_get data (r * Trace_buffer.slot_width)
      = Trace_buffer.kind_load
    then incr loads
  done;
  counters.Counters.loads <- counters.Counters.loads + !loads;
  counters.Counters.stores <- counters.Counters.stores + (n - !loads)

let observe ?(engine = `Compiled) program =
  let counters = Counters.create () in
  let sink = Interp.make_sink ~on_trace:(count_batch counters) () in
  let observation = run_engine ~engine ~sink program in
  counters.Counters.flops <- sink.Interp.flops;
  counters.Counters.int_ops <- sink.Interp.int_ops;
  publish_engine ~engine ~sink ~counters;
  (observation, counters)

(* --- reuse profiles ------------------------------------------------------- *)

type reuse_pass = {
  pass_flops : int;
  pass_loads : int;
  pass_stores : int;
  profiles : (int * Reuse.t) list;
}

(* One engine run with array [i] (declaration order) at [bases.(i)],
   every reference fed to one reuse profile per distinct granularity;
   loads and stores are counted from the same stream.  No trace is
   stored: each batch goes into every profile in turn, so a profile sees
   the records in engine order. *)
let profile_run ~engine ~arrays ~bases ~granularities
    (program : Bw_ir.Ast.program) =
  Bw_obs.Trace.with_span ~cat:"reuse"
    ~attrs:[ ("engine", Bw_obs.Trace.Str (engine_name engine)) ]
    ("reuse:" ^ program.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let profiles =
    List.map
      (fun granularity -> (granularity, Reuse.create ~granularity ()))
      (List.sort_uniq compare granularities)
  in
  let counters = Counters.create () in
  let sink =
    Interp.make_sink
      ~on_trace:(fun buf ->
        count_batch counters buf;
        let data = buf.Trace_buffer.data in
        let n = buf.Trace_buffer.len in
        List.iter
          (fun (_, profile) ->
            for r = 0 to n - 1 do
              let i = (r * Trace_buffer.slot_width) + 1 in
              Reuse.access profile ~addr:(Array.unsafe_get data i)
            done)
          profiles)
      ()
  in
  ignore
    (run_engine ~engine ~sink ~base_of:(base_lookup arrays bases) program);
  counters.Counters.flops <- sink.Interp.flops;
  publish_engine ~engine ~sink ~counters;
  { pass_flops = counters.Counters.flops;
    pass_loads = counters.Counters.loads;
    pass_stores = counters.Counters.stores;
    profiles }

let reuse_pass ?(engine = `Compiled) ~granularities program =
  let arrays = array_decls program in
  profile_run ~engine ~arrays
    ~bases:(canonical_bases arrays (canonical_shift arrays))
    ~granularities program

let reuse_profile ?(granularity = 32) ?(engine = `Compiled)
    (program : Bw_ir.Ast.program) =
  let arrays = array_decls program in
  let layout = Layout.assign ~stagger_bytes:0 arrays in
  let bases =
    Array.of_list (List.map (fun (name, _) -> Layout.base layout name) arrays)
  in
  let pass =
    profile_run ~engine ~arrays ~bases ~granularities:[ granularity ] program
  in
  snd (List.hd pass.profiles)

(* --- capture once, replay many -------------------------------------------- *)

(* Captured traces use the canonical address space (see
   [canonical_shift]), so one capture replays on any machine's layout. *)
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
  let store = Trace_store.create () in
  let sink =
    Interp.make_sink ~on_trace:(fun buf -> Trace_store.append_buffer store buf) ()
  in
  let observation =
    run_engine ~engine ~sink
      ~base_of:(base_lookup arrays (canonical_bases arrays shift))
      program
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

let replay ~machine c =
  Bw_obs.Trace.with_span ~cat:"replay"
    ~attrs:[ ("machine", Bw_obs.Trace.Str machine.Machine.name) ]
    ~result_attrs:(fun r ->
      [ ("loads", Bw_obs.Trace.Int r.counters.Counters.loads);
        ("stores", Bw_obs.Trace.Int r.counters.Counters.stores);
        ("memory_bytes", Bw_obs.Trace.Int (Timing.memory_bytes r.cache)) ])
    ("replay:" ^ c.captured_program.Bw_ir.Ast.prog_name)
  @@ fun () ->
  let machine_bases = layout_bases machine c.arrays in
  let shift = c.shift in
  let mask = (1 lsl shift) - 1 in
  let remap addr =
    Array.unsafe_get machine_bases ((addr lsr shift) - 1) + (addr land mask)
  in
  let translation, cache, counters, finish = lane machine in
  Trace_store.replay ~remap c.store ~translation ~cache ~counters;
  Bw_obs.Metrics.incr (Bw_obs.Metrics.counter "trace_store.replays");
  finish ~flops:c.captured_flops ~int_ops:c.captured_int_ops
    c.captured_observation

let replay_many ?jobs ~machines c =
  match machines with
  | [] -> []
  | [ machine ] -> [ replay ~machine c ]
  | _ ->
    Pool.map ?jobs (fun machine -> replay ~machine c) (Array.of_list machines)
    |> Array.to_list

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
