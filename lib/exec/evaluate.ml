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
    seconds = p.Bw_analysis.Predict.time.Bw_machine.Timing.total;
    binding_resource =
      p.Bw_analysis.Predict.time.Bw_machine.Timing.binding_resource }

let reuse_granularity (machine : Bw_machine.Machine.t) =
  match List.rev machine.Bw_machine.Machine.caches with
  | last :: _ -> last.Bw_machine.Cache.line_bytes
  | [] -> 32

(* Reuse tier: one stack-distance profile of the reference stream at the
   machine's last-level line granularity prices every fully associative
   capacity; [Bw_machine.Timing.bound] then prices the per-level miss
   traffic.  Writebacks are apportioned by the stream's store fraction —
   the profile does not track dirtiness. *)
let of_reuse ~(machine : Bw_machine.Machine.t) (pass : Run.reuse_pass) =
  let granularity = reuse_granularity machine in
  let reuse =
    match List.assoc_opt granularity pass.Run.profiles with
    | Some reuse -> reuse
    | None ->
      invalid_arg
        (Printf.sprintf "Evaluate.of_reuse: no %d-byte profile for %s"
           granularity machine.Bw_machine.Machine.name)
  in
  count Reuse_pass;
  let loads = float_of_int pass.Run.pass_loads in
  let stores = float_of_int pass.Run.pass_stores in
  let flops = float_of_int pass.Run.pass_flops in
  let write_frac =
    if loads +. stores <= 0.0 then 0.0 else stores /. (loads +. stores)
  in
  let levels =
    List.map
      (fun (geo : Bw_machine.Cache.geometry) ->
        let capacity_blocks =
          max 1 (geo.Bw_machine.Cache.size_bytes / granularity)
        in
        (* each miss fetches one [granularity]-byte profile block *)
        let bytes_in =
          float_of_int
            (Bw_machine.Reuse.misses reuse ~capacity_blocks * granularity)
        in
        (bytes_in, bytes_in *. write_frac))
      machine.Bw_machine.Machine.caches
  in
  let memory_bytes_in, memory_bytes_out =
    match List.rev levels with
    | last :: _ -> last
    | [] -> (loads *. 8.0, stores *. 8.0)
  in
  let time =
    Bw_machine.Timing.bound machine ~flops
      ~register_bytes:((loads +. stores) *. 8.0)
      ~levels
  in
  { fidelity = Reuse_pass;
    machine_name = machine.Bw_machine.Machine.name;
    flops;
    loads;
    stores;
    memory_bytes_in;
    memory_bytes_out;
    seconds = time.Bw_machine.Timing.total;
    binding_resource = time.Bw_machine.Timing.binding_resource }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>[%s] %s: %.3e flops, %.3e loads, %.3e stores@,\
     memory %.3e B in / %.3e B out, %.6f s (bound by %s)@]"
    (fidelity_name t.fidelity) t.machine_name t.flops t.loads t.stores
    t.memory_bytes_in t.memory_bytes_out t.seconds t.binding_resource
