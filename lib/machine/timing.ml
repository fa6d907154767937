type breakdown = {
  cpu_time : float;
  register_time : float;
  boundary_times : (string * float) list;
  total : float;
  binding_resource : string;
}

let memory_bytes cache =
  Cache.memory_bytes_in cache + Cache.memory_bytes_out cache

let bound (machine : Machine.t) ~flops ~register_bytes ~levels =
  let rec boundaries bandwidths levels =
    match (bandwidths, levels) with
    | [], [] -> []
    | bw :: bandwidths, (bytes_in, bytes_out) :: levels ->
      (* the last boundary is the memory bus, where a written-back byte
         costs [writeback_penalty] *)
      let bytes_out =
        if levels = [] then machine.writeback_penalty *. bytes_out
        else bytes_out
      in
      ((bytes_in +. bytes_out) /. bw) :: boundaries bandwidths levels
    | _ ->
      invalid_arg "Timing.bound: machine bandwidths do not match cache levels"
  in
  let cpu_time = flops /. machine.flops_per_sec in
  let register_time = register_bytes /. machine.register_bandwidth in
  let terms =
    List.combine
      (Machine.boundary_names machine)
      (register_time :: boundaries machine.cache_bandwidths levels)
  in
  let pick best term = if snd term > snd best then term else best in
  let binding_resource, total = List.fold_left pick ("CPU", cpu_time) terms in
  { cpu_time; register_time; boundary_times = List.tl terms; total;
    binding_resource }

let predict machine cache counters =
  let n = Cache.level_count cache in
  let levels =
    List.init n (fun i ->
        if i = n - 1 then
          ( float_of_int (Cache.memory_bytes_in cache),
            float_of_int (Cache.memory_bytes_out cache) )
        else
          let s = Cache.stats cache i in
          let line = (Cache.geometry cache i).Cache.line_bytes in
          ( float_of_int ((s.Cache.read_misses + s.Cache.write_misses) * line),
            float_of_int (s.Cache.writebacks * line) ))
  in
  bound machine
    ~flops:(float_of_int counters.Counters.flops)
    ~register_bytes:(float_of_int (Counters.register_bytes counters))
    ~levels

let effective_bandwidth machine cache counters =
  let b = predict machine cache counters in
  if b.total <= 0.0 then 0.0 else float_of_int (memory_bytes cache) /. b.total

let memory_utilisation machine cache counters =
  let bw = effective_bandwidth machine cache counters in
  let mem_bw =
    match List.rev machine.cache_bandwidths with
    | last :: _ -> last
    | [] -> machine.register_bandwidth
  in
  Float.min 1.0 (bw /. mem_bw)

let pp_breakdown ppf b =
  Format.fprintf ppf "@[<v>CPU      %8.4f ms@,L1-Reg   %8.4f ms@,"
    (b.cpu_time *. 1e3)
    (b.register_time *. 1e3);
  List.iter
    (fun (name, t) -> Format.fprintf ppf "%-8s %8.4f ms@," name (t *. 1e3))
    b.boundary_times;
  Format.fprintf ppf "total    %8.4f ms (bound by %s)@]" (b.total *. 1e3)
    b.binding_resource

let predict_with_latency machine cache counters ~miss_latency ~overlap =
  if overlap < 0.0 || overlap > 1.0 then
    invalid_arg "Timing.predict_with_latency: overlap must be in [0,1]";
  let b = predict machine cache counters in
  let exposed =
    (1.0 -. overlap)
    *. float_of_int (Cache.memory_lines_in cache)
    *. miss_latency
  in
  b.total +. exposed
