type row = {
  workload : string;
  machine : string;
  pred_seconds : float;
  sim_seconds : float;
  pred_memory_bytes : float;
  sim_memory_bytes : float;
}

let ratio pred sim =
  if sim = 0.0 then if pred = 0.0 then 1.0 else infinity else pred /. sim

let seconds_ratio r = ratio r.pred_seconds r.sim_seconds
let memory_ratio r = ratio r.pred_memory_bytes r.sim_memory_bytes

type envelope = {
  memory_ratio_min : float;
  memory_ratio_max : float;
  seconds_ratio_min : float;
  seconds_ratio_max : float;
  median_memory_rel_err_max : float;
}

(* Measured worst cases across the registry at scales 1-2 on the three
   default machines: memory ratio 0.70 (mm under a 2-way 256 KB L2,
   conflict misses) to 3.20 (NAS/SP cross-phase reuse the per-nest model
   cannot see); seconds ratio 0.25 (FFT's runtime-computed loop
   structure) to 2.84.  The bounds below add ~40% headroom so workload
   tweaks do not trip CI, while still catching a broken model (an order
   of magnitude off).  The median bound is the sharper claim: most cells
   are within a few percent. *)
let documented_envelope =
  { memory_ratio_min = 0.45;
    memory_ratio_max = 4.5;
    seconds_ratio_min = 0.18;
    seconds_ratio_max = 4.0;
    median_memory_rel_err_max = 0.15 }

let origin_scaled =
  let open Bw_machine in
  { Machine.origin2000 with
    Machine.name = "Origin2000 (scaled caches)";
    (* L1 keeps its real 32 KB (stream working sets are small); only the
       4 MB L2 shrinks, keeping laptop-sized arrays >> L2 *)
    caches =
      [ { Cache.size_bytes = 32 * 1024; line_bytes = 32; associativity = 2 };
        { Cache.size_bytes = 256 * 1024; line_bytes = 128; associativity = 2 } ] }

let default_machines =
  [ Bw_machine.Machine.origin2000; Bw_machine.Machine.exemplar; origin_scaled ]

let measure_program ?(machines = default_machines) ~name p =
  let results = Bw_exec.Run.simulate_many ~machines p in
  List.map2
    (fun machine (r : Bw_exec.Run.result) ->
      let pred = Bw_exec.Evaluate.of_program ~machine p in
      { workload = name;
        machine = machine.Bw_machine.Machine.name;
        pred_seconds = pred.Bw_exec.Evaluate.seconds;
        sim_seconds = Bw_exec.Run.seconds r;
        pred_memory_bytes = Bw_exec.Evaluate.memory_bytes pred;
        sim_memory_bytes =
          float_of_int (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache) })
    machines results

let measure ?(scale = 1) ?(machines = default_machines) () =
  List.concat_map
    (fun (e : Bw_workloads.Registry.entry) ->
      measure_program ~machines ~name:e.Bw_workloads.Registry.name
        (e.Bw_workloads.Registry.build ~scale))
    Bw_workloads.Registry.all

let median_memory_rel_err rows =
  let errs =
    List.filter_map
      (fun r ->
        if r.sim_memory_bytes = 0.0 then None
        else
          Some
            (Float.abs (r.pred_memory_bytes -. r.sim_memory_bytes)
            /. r.sim_memory_bytes))
      rows
    |> List.sort compare
  in
  match errs with
  | [] -> 0.0
  | _ ->
    let n = List.length errs in
    let nth k = List.nth errs k in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let check ?(envelope = documented_envelope) rows =
  let cell_violations =
    List.concat_map
      (fun r ->
        let where = Printf.sprintf "%s on %s" r.workload r.machine in
        let out what v lo hi =
          if v < lo || v > hi then
            [ Printf.sprintf "%s: %s ratio %.2f outside [%.2f, %.2f]" where
                what v lo hi ]
          else []
        in
        out "memory" (memory_ratio r) envelope.memory_ratio_min
          envelope.memory_ratio_max
        @ out "seconds" (seconds_ratio r) envelope.seconds_ratio_min
            envelope.seconds_ratio_max)
      rows
  in
  let med = median_memory_rel_err rows in
  if med > envelope.median_memory_rel_err_max then
    cell_violations
    @ [ Printf.sprintf "median memory relative error %.3f exceeds %.3f" med
          envelope.median_memory_rel_err_max ]
  else cell_violations

let table rows =
  let cells =
    List.map
      (fun r ->
        [ r.workload;
          r.machine;
          Table.ms r.pred_seconds;
          Table.ms r.sim_seconds;
          Table.pct (seconds_ratio r -. 1.0);
          Table.f2 (r.pred_memory_bytes /. 1e6);
          Table.f2 (r.sim_memory_bytes /. 1e6);
          Table.pct (memory_ratio r -. 1.0) ])
      rows
  in
  Table.make ~title:"Analytic predictor vs exact simulator"
    ~header:
      [ "workload"; "machine"; "pred time"; "sim time"; "err";
        "pred mem (MB)"; "sim mem (MB)"; "err" ]
    ~notes:
      [ Printf.sprintf "median memory relative error: %.1f%%"
          (100.0 *. median_memory_rel_err rows);
        "prediction is closed-form (no execution); simulator is the \
         exact per-reference cache model";
        "divergence classes: associativity conflicts, cross-phase \
         reuse, runtime-computed loop structure (see EXPERIMENTS.md)" ]
    cells
