type fidelity = Analytic | Reuse_pass | Exact

let fidelity_name = function
  | Analytic -> "analytic"
  | Reuse_pass -> "reuse"
  | Exact -> "exact"

type t = {
  fidelity : fidelity;
  machine_name : string;
  flops : float;
  loads : float;
  stores : float;
  memory_bytes_in : float;
  memory_bytes_out : float;
  seconds : float;
  binding_resource : string;
}

let memory_bytes t = t.memory_bytes_in +. t.memory_bytes_out

let tier_analytic = Bw_obs.Metrics.counter "evaluate.tier.analytic"
let tier_reuse = Bw_obs.Metrics.counter "evaluate.tier.reuse"
let tier_exact = Bw_obs.Metrics.counter "evaluate.tier.exact"

let count = function
  | Analytic -> Bw_obs.Metrics.incr tier_analytic
  | Reuse_pass -> Bw_obs.Metrics.incr tier_reuse
  | Exact -> Bw_obs.Metrics.incr tier_exact

let of_result (r : Run.result) =
  count Exact;
  { fidelity = Exact;
    machine_name = r.Run.machine.Bw_machine.Machine.name;
    flops = float_of_int r.Run.counters.Bw_machine.Counters.flops;
    loads = float_of_int r.Run.counters.Bw_machine.Counters.loads;
    stores = float_of_int r.Run.counters.Bw_machine.Counters.stores;
    memory_bytes_in =
      float_of_int (Bw_machine.Cache.memory_bytes_in r.Run.cache);
    memory_bytes_out =
      float_of_int (Bw_machine.Cache.memory_bytes_out r.Run.cache);
    seconds = r.Run.breakdown.Bw_machine.Timing.total;
    binding_resource = r.Run.breakdown.Bw_machine.Timing.binding_resource }

let of_program ~(machine : Bw_machine.Machine.t) program =
  let p = Bw_analysis.Predict.predict ~machine program in
  count Analytic;
  { fidelity = Analytic;
    machine_name = machine.Bw_machine.Machine.name;
    flops = p.Bw_analysis.Predict.flops;
    loads = p.Bw_analysis.Predict.loads;
    stores = p.Bw_analysis.Predict.stores;
    memory_bytes_in = p.Bw_analysis.Predict.memory_bytes_in;
    memory_bytes_out = p.Bw_analysis.Predict.memory_bytes_out;
    seconds = p.Bw_analysis.Predict.seconds;
    binding_resource = p.Bw_analysis.Predict.binding_resource }

(* Reuse tier: one stack-distance profile of the captured stream at the
   machine's last-level line granularity prices every fully associative
   capacity; the timing model is then evaluated from the per-level miss
   counts.  Writebacks are apportioned by the stream's store fraction —
   the profile does not track dirtiness. *)
let of_reuse ~(machine : Bw_machine.Machine.t) (c : Run.capture) =
  count Reuse_pass;
  let loads = ref 0 and stores = ref 0 in
  Bw_machine.Trace_store.iter c.Run.store ~f:(fun kind _ _ ->
      if kind = Bw_machine.Trace_buffer.kind_load then incr loads
      else incr stores);
  let loads = float_of_int !loads and stores = float_of_int !stores in
  let flops = float_of_int c.Run.captured_flops in
  let caches = machine.Bw_machine.Machine.caches in
  let granularity =
    match List.rev caches with
    | last :: _ -> last.Bw_machine.Cache.line_bytes
    | [] -> 32
  in
  let reuse = Run.reuse_of_capture ~granularity c in
  let write_frac =
    if loads +. stores <= 0.0 then 0.0 else stores /. (loads +. stores)
  in
  let level_lines =
    List.map
      (fun (geo : Bw_machine.Cache.geometry) ->
        let capacity_blocks =
          max 1 (geo.Bw_machine.Cache.size_bytes / granularity)
        in
        let misses =
          float_of_int (Bw_machine.Reuse.misses reuse ~capacity_blocks)
        in
        (* profile blocks are [granularity] bytes; rescale to this
           level's own line size for byte traffic *)
        let scale =
          float_of_int granularity
          /. float_of_int geo.Bw_machine.Cache.line_bytes
        in
        (geo, misses *. scale))
      caches
  in
  let memory_bytes_in, memory_bytes_out =
    match List.rev level_lines with
    | (geo, lines) :: _ ->
      let b = lines *. float_of_int geo.Bw_machine.Cache.line_bytes in
      (b, b *. write_frac)
    | [] -> (loads *. 8.0, stores *. 8.0)
  in
  let cpu = flops /. machine.Bw_machine.Machine.flops_per_sec in
  let register_seconds =
    (loads +. stores) *. 8.0 /. machine.Bw_machine.Machine.register_bandwidth
  in
  let bandwidths = Array.of_list machine.Bw_machine.Machine.cache_bandwidths in
  let n_levels = List.length caches in
  let boundary_times =
    List.mapi
      (fun i (geo, lines) ->
        let linef = float_of_int geo.Bw_machine.Cache.line_bytes in
        let bytes_in = lines *. linef in
        let bytes_out = bytes_in *. write_frac in
        let bytes =
          if i = n_levels - 1 then
            bytes_in
            +. (machine.Bw_machine.Machine.writeback_penalty *. bytes_out)
          else bytes_in +. bytes_out
        in
        let name =
          if i = n_levels - 1 then Printf.sprintf "Mem-L%d" (i + 1)
          else Printf.sprintf "L%d-L%d" (i + 2) (i + 1)
        in
        let bw =
          if i < Array.length bandwidths then bandwidths.(i)
          else machine.Bw_machine.Machine.register_bandwidth
        in
        (name, bytes /. bw))
      level_lines
  in
  let all = ("CPU", cpu) :: ("L1-Reg", register_seconds) :: boundary_times in
  let binding_resource, seconds =
    List.fold_left
      (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
      ("CPU", cpu) all
  in
  { fidelity = Reuse_pass;
    machine_name = machine.Bw_machine.Machine.name;
    flops;
    loads;
    stores;
    memory_bytes_in;
    memory_bytes_out;
    seconds;
    binding_resource }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>[%s] %s: %.3e flops, %.3e loads, %.3e stores@,\
     memory %.3e B in / %.3e B out, %.6f s (bound by %s)@]"
    (fidelity_name t.fidelity) t.machine_name t.flops t.loads t.stores
    t.memory_bytes_in t.memory_bytes_out t.seconds t.binding_resource
