open Bw_machine

let origin_scaled = Accuracy.origin_scaled

let pick scale a b = if scale <= 1 then a else b

(* Multi-machine tables run each program once: one engine run streams
   its memory references into every machine — the results are
   bit-identical to per-machine Run.simulate calls (enforced by the test
   suite), only the engine re-execution is saved. *)
let seconds_on machines p =
  List.map Bw_exec.Run.seconds (Bw_exec.Run.simulate_many ~machines p)

(* --- E1 ------------------------------------------------------------------ *)

let simple_example ?(scale = 2) () =
  let n = pick scale 100_000 2_000_000 in
  let machines = [ Machine.origin2000; Machine.exemplar ] in
  let write = Bw_workloads.Simple_example.write_loop ~n in
  let read = Bw_workloads.Simple_example.read_loop ~n in
  let rows =
    List.map2
      (fun machine (tw, tr) ->
        [ machine.Machine.name; Table.ms tw; Table.ms tr;
          Table.f2 (tw /. tr) ])
      machines
      (List.combine (seconds_on machines write) (seconds_on machines read))
  in
  Table.make ~title:"E1 (Section 2.1): write loop vs read loop"
    ~header:[ "machine"; "a[i]=a[i]+0.4"; "sum+=a[i]"; "ratio" ]
    ~notes:
      [ "paper: Origin2000 0.104s vs 0.054s (1.93x); Exemplar 0.055s vs 0.036s (1.53x)";
        "the writing loop moves twice the memory traffic, so a bandwidth-bound machine runs it ~2x slower" ]
    rows

(* --- Figure 1 workloads ----------------------------------------------------- *)

(* The paper's programs at a size: their corpus sources, with [params]
   in place of the sizes they declare. *)
let paper = Bw_workloads.Registry.with_params

(* Sizes keep every array well beyond the scaled 256 KB L2 at scale 2. *)
let fig1_workloads scale =
  let log2n = pick scale 13 15 in
  [ ("convolution", paper "convolution" [ ("n", pick scale 60_000 400_000); ("taps", 3) ]);
    ("dmxpy", paper "dmxpy" [ ("n", pick scale 256 768) ]);
    ("mm (-O2, jki)", paper "mm_jki" [ ("n", pick scale 128 256) ]);
    ( "mm (-O3, blocked)",
      paper "mm_blocked" [ ("n", pick scale 128 256); ("tile", pick scale 32 48) ] );
    ("FFT", paper "fft" [ ("n", 1 lsl log2n); ("log2n", log2n) ]);
    ("NAS/SP", paper "nas_sp" [ ("n", pick scale 16 36) ]);
    ("Sweep3D", paper "sweep3d" [ ("n", pick scale 16 36) ]) ]

let fig1 ?(scale = 2) () =
  let machine = origin_scaled in
  let program_rows =
    List.map
      (fun (name, p) ->
        let b = Balance.of_program ~machine p in
        name :: List.map (fun (_, v) -> Table.f2 v) b.Balance.per_boundary)
      (fig1_workloads scale)
  in
  let machine_row =
    let b = Balance.of_machine Machine.origin2000 in
    "Origin2000 (supply)"
    :: List.map (fun (_, v) -> Table.f2 v) b.Balance.per_boundary
  in
  Table.make ~title:"Figure 1: program and machine balance (bytes per flop)"
    ~header:[ "program/machine"; "L1-Reg"; "L2-L1"; "Mem-L2" ]
    ~notes:
      [ "paper: conv 6.4/5.1/5.2, dmxpy 8.3/8.3/8.4, mm -O2 24.0/8.2/5.9, mm -O3 8.08/0.97/0.04, FFT 8.3/3.0/2.7, SP 10.8/6.4/4.9, Sweep3D 15.0/9.1/7.8; machine 4/4/0.8";
        "program balance measured on the Origin2000 model with proportionally scaled caches (laptop-sized arrays remain >> cache)" ]
    (program_rows @ [ machine_row ])

let fig2 ?(scale = 2) () =
  let machine = origin_scaled in
  let rows =
    List.filter_map
      (fun (name, p) ->
        if name = "mm (-O3, blocked)" then None
        else begin
          let b = Balance.of_program ~machine p in
          let ratios = Balance.ratios b Machine.origin2000 in
          Some (name :: List.map (fun (_, v) -> Table.f1 v) ratios)
        end)
      (fig1_workloads scale)
  in
  Table.make ~title:"Figure 2: ratios of bandwidth demand to supply"
    ~header:[ "application"; "L1-Reg"; "L2-L1"; "Mem-L2" ]
    ~notes:
      [ "paper: memory ratios 6.5 / 10.5 / 7.4 / 3.4 / 6.1 / 9.8 (conv, dmxpy, mm -O2, FFT, SP, Sweep3D)";
        "the last column bounds CPU utilisation: a ratio r caps utilisation at 1/r" ]
    rows

(* --- Figure 3 ------------------------------------------------------------------ *)

let fig3 ?(scale = 2) () =
  (* 51917 doubles: successive packed arrays then sit 419432 bytes apart,
     and 5 * 419432 = 2 MB + 8, so arrays 1 and 6 share their cache line
     index in the Exemplar's 1 MB direct-mapped cache -- only the
     six-array kernel thrashes, exactly the paper's outlier *)
  let n = 51_917 in
  ignore scale;
  let machines = [ Machine.origin2000; Machine.exemplar ] in
  let rows =
    List.map
      (fun (name, (w, r)) ->
        let p = Bw_workloads.Stride_kernels.kernel ~writes:w ~reads:r ~n in
        name
        :: List.map
             (fun res -> Table.mb_s (Bw_exec.Run.nominal_bandwidth res))
             (Bw_exec.Run.simulate_many ~machines p))
      Bw_workloads.Stride_kernels.all
  in
  Table.make
    ~title:"Figure 3: effective memory bandwidth of stride-1 kernels"
    ~header:[ "kernel"; "Origin2000"; "Exemplar" ]
    ~notes:
      [ "paper: all kernels within ~20% on Origin2000 (~300 MB/s); Exemplar 417-551 MB/s except 3w6r (conflict misses on the direct-mapped cache)";
        "bandwidth is nominal bytes / time, as measured without hardware counters; on the virtually-indexed direct-mapped Exemplar cache, arrays 1 and 6 of the packed layout share a line index, so only 3w6r thrashes" ]
    rows

(* --- Figure 4 ------------------------------------------------------------------- *)

let fig4 ?(scale = 2) () =
  let n = pick scale 20_000 200_000 in
  let p = Bw_workloads.Fig4.program ~n in
  let g = Bw_fusion.Fusion_graph.build p in
  let machine = origin_scaled in
  let traffic plan =
    match Bw_transform.Fuse.apply_plan p plan with
    | Error e -> invalid_arg e
    | Ok p' ->
      let r = Bw_exec.Run.simulate ~machine p' in
      Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache
  in
  let unfused = Bw_fusion.Cost.unfused g in
  let bw_min = Bw_fusion.Bandwidth_minimal.exhaustive g in
  let ew = Bw_fusion.Edge_weighted.exhaustive g in
  let row name plan =
    [ name;
      string_of_int (Bw_fusion.Cost.bandwidth_cost g plan);
      string_of_int (Bw_fusion.Cost.edge_weight_cost g plan);
      string_of_int (List.length plan);
      Printf.sprintf "%.1f MB" (float_of_int (traffic plan) /. 1e6) ]
  in
  Table.make ~title:"Figure 4: fusion objectives on the six-loop instance"
    ~header:
      [ "strategy"; "arrays loaded"; "cross weight"; "partitions"; "simulated traffic" ]
    ~notes:
      [ "paper: no fusion loads 20 arrays; bandwidth-minimal fusion 7; the edge-weighted optimum (cross weight 2) loads 8";
        "simulated traffic confirms the graph objective orders the real memory traffic the same way" ]
    [ row "no fusion" unfused;
      row "edge-weighted optimum" ew;
      row "bandwidth-minimal (min-cut)" bw_min ]

(* --- Figure 5 ------------------------------------------------------------------- *)

let brute_force_cut h ~s ~t =
  let m = Bw_graph.Hypergraph.edge_count h in
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= m then []
    else
      List.map (fun rest -> from :: rest) (subsets (k - 1) (from + 1))
      @ subsets k (from + 1)
  in
  let disconnects removed =
    not (Bw_graph.Hypergraph.connected_without h ~removed s).(t)
  in
  let rec go k =
    if k > m then m
    else if List.exists disconnects (subsets k 0) then k
    else go (k + 1)
  in
  go 0

let fig5 ?(scale = 2) () =
  (* quality on small instances *)
  let quality_checks = pick scale 10 25 in
  let optimal = ref 0 in
  for seed = 1 to quality_checks do
    let h = Bw_graph.Graph_gen.hypergraph ~seed ~nodes:7 ~edges:7 ~max_arity:4 in
    let r = Bw_graph.Hyper_cut.min_cut h ~s:0 ~t:6 in
    if r.Bw_graph.Hyper_cut.value = brute_force_cut h ~s:0 ~t:6 then
      incr optimal
  done;
  (* runtime scaling *)
  let scaling =
    List.map
      (fun nodes ->
        let edges = 2 * nodes in
        let h =
          Bw_graph.Graph_gen.hypergraph ~seed:nodes ~nodes ~edges ~max_arity:5
        in
        (* Wall clock, not [Sys.time]: under the multicore harness
           [Sys.time] sums CPU across all domains and would overstate
           the per-instance cost. *)
        let t0 = Unix.gettimeofday () in
        let r = Bw_graph.Hyper_cut.min_cut h ~s:0 ~t:(nodes - 1) in
        let dt = Unix.gettimeofday () -. t0 in
        [ string_of_int nodes;
          string_of_int edges;
          string_of_int r.Bw_graph.Hyper_cut.value;
          Printf.sprintf "%.1f ms" (dt *. 1e3) ])
      (pick scale [ 20; 40 ] [ 20; 40; 80; 160; 320 ])
  in
  Table.make
    ~title:"Figure 5: hyper-graph min-cut — optimality and scaling"
    ~header:[ "loops"; "arrays"; "cut value"; "time" ]
    ~notes:
      [ Printf.sprintf
          "optimal on %d/%d random 7-node instances (exhaustive oracle)"
          !optimal quality_checks;
        "complexity O(E^3 + V): cubic in arrays, linear in loops (Section 3.1.2)" ]
    scaling

(* --- Figure 6 -------------------------------------------------------------------- *)

let fig6 ?(scale = 2) () =
  let n = pick scale 128 512 in
  let machine = origin_scaled in
  let stats name p =
    let r = Bw_exec.Run.simulate ~machine p in
    [ name;
      Printf.sprintf "%d" (Bw_transform.Shrink.storage_bytes p);
      Printf.sprintf "%.2f MB"
        (float_of_int (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache) /. 1e6) ]
  in
  let original = Bw_workloads.Fig6.original ~n in
  let fused = Bw_workloads.Fig6.fused ~n in
  let contracted, _ = Bw_transform.Contract.contract_arrays fused in
  let shrunk =
    match Bw_transform.Shrink.apply contracted "a" with
    | Ok (p, _) -> p
    | Error e -> invalid_arg e
  in
  Table.make
    ~title:"Figure 6: array shrinking and peeling (storage and traffic)"
    ~header:[ "version"; "data bytes"; "memory traffic" ]
    ~notes:
      [ Printf.sprintf
          "paper: two N x N arrays (N=%d) reduce to O(N): a rolling N x 2 buffer, one peeled column, and a scalar"
          n;
        "the transformed program is bit-identical in observable behaviour (test suite checks)" ]
    [ stats "original (a)" original;
      stats "fused (b)" fused;
      stats "contract b -> scalar" contracted;
      stats "shrink + peel a (c)" shrunk ]

(* --- Figure 8 -------------------------------------------------------------------- *)

let fig8 ?(scale = 2) () =
  (* res must exceed every cache (2 MB / 16 MB at the two scales) *)
  let n = pick scale 300_000 2_000_000 in
  let original = Bw_workloads.Fig7.original ~n in
  let fused =
    match Bw_transform.Fuse.fuse_at original 1 with
    | Ok p -> p
    | Error e -> invalid_arg e
  in
  let eliminated, _ = Bw_transform.Store_elim.run fused in
  let machines = [ Machine.origin2000; Machine.exemplar ] in
  (* Three engine runs (one per program version), each streamed into
     both machines, instead of six. *)
  let t0s = seconds_on machines original in
  let t1s = seconds_on machines fused in
  let t2s = seconds_on machines eliminated in
  let rows =
    List.map2
      (fun machine ((t0, t1), t2) ->
        [ machine.Machine.name; Table.ms t0; Table.ms t1; Table.ms t2;
          Table.f2 (t0 /. t2) ])
      machines
      (List.combine (List.combine t0s t1s) t2s)
  in
  Table.make ~title:"Figure 8: effect of store elimination"
    ~header:[ "machine"; "original"; "fusion only"; "store elimination"; "speedup" ]
    ~notes:
      [ "paper: Origin2000 0.32 / 0.22 / 0.16 s (2.0x); Exemplar 0.24 / 0.21 / 0.14 s (1.7x)";
        "fusion removes one read pass over res; store elimination removes its write-back" ]
    rows

(* --- SP utilisation ----------------------------------------------------------------- *)

(* nas_sp's ten top-level nests, in order, are SP's seven subroutines:
   each line solve is a forward and a backward nest. *)
let sp_subroutines ~n =
  let full = paper "nas_sp" [ ("n", n) ] in
  let rec slice nests = function
    | [] -> []
    | (name, k) :: rest ->
      let body = List.filteri (fun i _ -> i < k) nests in
      ( name,
        { full with
          Bw_ir.Ast.prog_name = "sp_" ^ name;
          body;
          live_out = [ "u1"; "u5"; "rhs1" ] } )
      :: slice (List.filteri (fun i _ -> i >= k) nests) rest
  in
  slice full.Bw_ir.Ast.body
    [ ("compute_aux", 1); ("compute_rhs", 1); ("txinvr", 1); ("x_solve", 2);
      ("y_solve", 2); ("z_solve", 2); ("add", 1) ]

let sp_utilisation ?(scale = 2) () =
  let n = pick scale 16 36 in
  let machine = origin_scaled in
  let rows =
    List.map
      (fun (name, p) ->
        let r = Bw_exec.Run.simulate ~machine p in
        let u =
          Bw_machine.Timing.memory_utilisation machine r.Bw_exec.Run.cache
            r.Bw_exec.Run.counters
        in
        [ name; Table.pct u;
          r.Bw_exec.Run.breakdown.Bw_machine.Timing.binding_resource ])
      (sp_subroutines ~n)
  in
  Table.make
    ~title:"Section 2.3: NAS/SP memory-bandwidth utilisation by subroutine"
    ~header:[ "subroutine"; "memory BW utilisation"; "bound by" ]
    ~notes:
      [ "paper: 5 of the 7 major SP subroutines sustain >= 84% of the Origin2000's memory bandwidth" ]
    rows

(* --- Ablations ------------------------------------------------------------------------ *)

let ablation_fusion ?(scale = 2) () =
  let trials = pick scale 6 15 in
  let totals = Array.make 4 0 in
  for seed = 1 to trials do
    let p =
      Bw_workloads.Random_programs.generate ~seed ~loops:6 ~arrays:4 ~n:64
    in
    let g = Bw_fusion.Fusion_graph.build p in
    let cost plan = Bw_fusion.Cost.bandwidth_cost g plan in
    totals.(0) <- totals.(0) + cost (Bw_fusion.Cost.unfused g);
    totals.(1) <- totals.(1) + cost (Bw_fusion.Edge_weighted.greedy_merge g);
    totals.(2) <- totals.(2) + cost (Bw_fusion.Bandwidth_minimal.multi_partition g);
    totals.(3) <- totals.(3) + cost (Bw_fusion.Bandwidth_minimal.exhaustive g)
  done;
  let avg i = float_of_int totals.(i) /. float_of_int trials in
  Table.make
    ~title:"Ablation: fusion objective quality (random 6-loop programs)"
    ~header:[ "strategy"; "mean arrays loaded" ]
    ~notes:
      [ Printf.sprintf "%d random programs, 4 arrays each" trials;
        "lower is better; 'exhaustive' is the true optimum of the paper's objective" ]
    [ [ "no fusion"; Table.f2 (avg 0) ];
      [ "edge-weighted greedy"; Table.f2 (avg 1) ];
      [ "bandwidth-minimal (recursive min-cut)"; Table.f2 (avg 2) ];
      [ "exhaustive optimum"; Table.f2 (avg 3) ] ]

let ablation_pipeline ?(scale = 2) () =
  let n = pick scale 300_000 2_000_000 in
  let machine = Machine.origin2000 in
  let p = Bw_workloads.Fig7.original ~n in
  let traffic stages =
    let p', _ = Bw_transform.Strategy.run ~stages p in
    let r = Bw_exec.Run.simulate ~machine p' in
    float_of_int (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache) /. 1e6
  in
  let open Bw_transform.Strategy in
  Table.make
    ~title:"Ablation: pipeline stages on the Figure 7 program"
    ~header:[ "stages"; "memory traffic (MB)" ]
    ~notes:[ "each stage strictly reduces traffic; store elimination needs fusion first" ]
    [ [ "none"; Table.f2 (traffic []) ];
      [ "fusion"; Table.f2 (traffic [ Fuse ]) ];
      [ "fusion + store elimination"; Table.f2 (traffic default) ];
      [ "store elimination alone (no fusion)";
        Table.f2 (traffic [ Forward; Store_elim ]) ] ]

let ablation_cache ?(scale = 2) () =
  let n = pick scale 64 144 in
  let p = paper "mm_jki" [ ("n", n) ] in
  let l2_sizes_kb = [ 16; 32; 64; 128; 256; 1024 ] in
  let line_bytes = 128 in
  (* One engine execution covers the whole sweep: the capture is replayed
     against each L2 size for the exact (2-way LRU) simulator columns,
     and a single Reuse pass over the same capture predicts the miss
     count of *every* capacity at once (fully associative LRU: an access
     misses iff its reuse distance >= capacity, plus cold misses). *)
  let c = Bw_exec.Run.capture p in
  let reuse = Bw_exec.Run.reuse_of_capture ~granularity:line_bytes c in
  let machines =
    List.map
      (fun l2_kb ->
        { Machine.origin2000 with
          Machine.name = Printf.sprintf "L2=%dKB" l2_kb;
          caches =
            [ { Cache.size_bytes = 2 * 1024; line_bytes = 32; associativity = 2 };
              { Cache.size_bytes = l2_kb * 1024;
                line_bytes;
                associativity = 2 } ] })
      l2_sizes_kb
  in
  let rows =
    List.map2
      (fun (l2_kb, machine) r ->
        let mem =
          match List.rev (Bw_exec.Run.program_balance r) with
          | (_, v) :: _ -> v
          | [] -> assert false
        in
        let exact = Cache.memory_lines_in r.Bw_exec.Run.cache in
        let predicted =
          Reuse.misses reuse ~capacity_blocks:(l2_kb * 1024 / line_bytes)
        in
        (* Analytic tier: no execution at all — closed-form traffic from
           the IR and this variant's geometry. *)
        let analytic = Bw_exec.Evaluate.of_program ~machine p in
        let analytic_lines =
          analytic.Bw_exec.Evaluate.memory_bytes_in
          /. float_of_int line_bytes
        in
        [ Printf.sprintf "%d KB" l2_kb;
          Table.f2 mem;
          string_of_int exact;
          string_of_int predicted;
          Printf.sprintf "%.0f" analytic_lines ])
      (List.combine l2_sizes_kb machines)
      (Bw_exec.Run.replay_many ~machines c)
  in
  Table.make
    ~title:"Ablation: mm (jki) memory traffic vs L2 capacity"
    ~header:
      [ "L2 size"; "Mem-L2 bytes/flop"; "L2 misses (exact)";
        "L2 misses (reuse fast path)"; "L2 misses (analytic)" ]
    ~notes:
      [ "once the working set fits, traffic collapses to compulsory misses — the same effect blocking achieves at fixed cache size";
        "exact column: lines fetched from memory by the 2-way set-associative simulator, one replay per size from a single capture";
        "fast-path column: one reuse-distance pass over the same capture predicts all capacities at once (fully associative LRU model; all sweep capacities are powers of two, so the histogram is bucket-exact)";
        "analytic column: closed-form prediction from the IR alone (Evaluate's analytic tier) — no execution, microseconds per cell; error envelope in EXPERIMENTS.md" ]
    rows

let extensions ?(scale = 2) () =
  let machine =
    { Machine.origin2000 with
      Machine.name = "origin-small";
      caches =
        [ { Cache.size_bytes = 4096; line_bytes = 32; associativity = 2 };
          { Cache.size_bytes = 32 * 1024; line_bytes = 128; associativity = 2 } ] }
  in
  let particles = pick scale 20_000 60_000 in
  let pairs = pick scale 8_000 24_000 in
  let p =
    Bw_workloads.Irregular.interactions ~particles ~pairs ~sweeps:8
  in
  let spec =
    { Bw_transform.Packing.index_arrays = Bw_workloads.Irregular.index_arrays;
      data_arrays = Bw_workloads.Irregular.data_arrays }
  in
  let traffic q =
    float_of_int
      (Bw_machine.Timing.memory_bytes
         (Bw_exec.Run.simulate ~machine q).Bw_exec.Run.cache)
    /. 1e6
  in
  let grouped =
    match Bw_transform.Packing.group p spec ~by:"idx1" with
    | Ok g -> g
    | Error e -> invalid_arg e
  in
  let packed =
    match Bw_transform.Packing.pack p spec with
    | Ok g -> g
    | Error e -> invalid_arg e
  in
  let both =
    let spec' =
      { spec with
        Bw_transform.Packing.index_arrays =
          List.map (fun a -> "sorted_" ^ a) spec.Bw_transform.Packing.index_arrays }
    in
    match Bw_transform.Packing.pack grouped spec' with
    | Ok g -> g
    | Error e -> invalid_arg e
  in
  Table.make
    ~title:
      "Extension: run-time locality grouping and data packing (irregular kernel)"
    ~header:[ "variant"; "memory traffic (MB)" ]
    ~notes:
      [ "the dynamic-application arm of the strategy (Section 4): counting-sort the interaction list, renumber particles in first-touch order";
        "prologue cost (sort, permutation, copies) is simulated along with the benefit" ]
    [ [ "random interaction list"; Table.f2 (traffic p) ];
      [ "locality grouping (sort by idx1)"; Table.f2 (traffic grouped) ];
      [ "data packing (first-touch renumbering)"; Table.f2 (traffic packed) ];
      [ "grouping + packing"; Table.f2 (traffic both) ] ]

(* The introduction's argument: prefetching and non-blocking caches hide
   latency by consuming bandwidth, so as tolerance improves, execution
   time converges on the bandwidth bound instead of going to zero. *)
let latency_tolerance ?(scale = 2) () =
  let n = pick scale 100_000 500_000 in
  let machine = Machine.origin2000 in
  let p = Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:1 ~n in
  let r = Bw_exec.Run.simulate ~machine p in
  let bound = r.Bw_exec.Run.breakdown.Bw_machine.Timing.total in
  let miss_latency = 400e-9 (* a 1990s DRAM round trip *) in
  let rows =
    List.map
      (fun overlap ->
        let t =
          Bw_machine.Timing.predict_with_latency machine
            r.Bw_exec.Run.cache r.Bw_exec.Run.counters ~miss_latency ~overlap
        in
        [ Printf.sprintf "%.0f%%" (100.0 *. overlap);
          Table.ms t;
          Table.f2 (t /. bound) ])
      [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ]
  in
  Table.make
    ~title:"Latency tolerance converges on the bandwidth bound (1w1r kernel)"
    ~header:[ "latency hidden"; "predicted time"; "x bandwidth bound" ]
    ~notes:
      [ "the paper's introduction: actual latency is the inverse of consumed bandwidth, so latency cannot be fully tolerated without infinite bandwidth";
        "400 ns exposed per unoverlapped memory line fetch" ]
    rows

(* Padding repairs the Figure 3 outlier: adding one line of inter-array
   padding breaks the 3w6r virtual-index alias on the Exemplar. *)
let ablation_padding ?(scale = 2) () =
  ignore scale;
  let n = 51_917 in
  let kernel = Bw_workloads.Stride_kernels.kernel ~writes:3 ~reads:6 ~n in
  let paddings = [ 0; 32; 64; 128 ] in
  (* One engine run serves all four stagger variants: the engine writes
     layout-independent canonical addresses, and each machine re-bases
     them onto its own (differently staggered) array layout. *)
  let machines =
    List.map
      (fun extra ->
        { Machine.exemplar with
          Machine.name = Printf.sprintf "stagger+%dB" extra;
          array_stagger_bytes =
            Machine.exemplar.Machine.array_stagger_bytes + extra })
      paddings
  in
  let rows =
    List.map2
      (fun extra r ->
        [ Printf.sprintf "+%d bytes" extra;
          Table.mb_s (Bw_exec.Run.nominal_bandwidth r) ])
      paddings
      (Bw_exec.Run.simulate_many ~machines kernel)
  in
  Table.make
    ~title:"Ablation: inter-array padding vs the 3w6r conflict outlier (Exemplar)"
    ~header:[ "extra padding"; "3w6r effective bandwidth" ]
    ~notes:
      [ "with the default layout, arrays 1 and 6 share a line index in the 1 MB direct-mapped cache; one extra cache line of padding removes the alias";
        "this is the fix the paper's conflict-miss conjecture implies" ]
    rows

(* --- Fusion search ------------------------------------------------------------ *)

(* The default pipeline's greedy sweep vs annealed k-way search on the
   seeded operation-DAG family, priced by the analytic predictor; the
   exact set-partition DP certifies optimality where it is affordable. *)
let fuse_search ?(scale = 2) () =
  let machine = origin_scaled in
  let open Bw_fusion.Search in
  let rows =
    List.map
      (fun (name, p) ->
        let cfg engine = { (default_config ~engine ~machine ()) with seed = 1 } in
        let t0 = Unix.gettimeofday () in
        let anneal =
          match plan (cfg Anneal) p with
          | Ok (_, st) -> st
          | Error e -> invalid_arg e
        in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let exact_cell =
          match plan (cfg Exact) p with
          | Ok (_, st) -> Printf.sprintf "%.2f" (st.traffic /. 1e6)
          | Error _ -> "-"
        in
        let win =
          100.0 *. (anneal.greedy_traffic -. anneal.traffic)
          /. anneal.greedy_traffic
        in
        [ name;
          string_of_int anneal.nodes;
          Table.f2 (anneal.input_traffic /. 1e6);
          Table.f2 (anneal.greedy_traffic /. 1e6);
          Table.f2 (anneal.traffic /. 1e6);
          exact_cell;
          Table.f1 win;
          Printf.sprintf "%.0f ms" wall_ms ])
      (Bw_workloads.Dag_family.instances ~scale)
  in
  Table.make
    ~title:"Fusion search: the default greedy sweep vs annealed k-way partitions (DAG family)"
    ~header:
      [ "instance"; "loops"; "unfused MB"; "greedy MB"; "anneal MB";
        "exact MB"; "anneal win %"; "search time" ]
    ~notes:
      [ "predicted memory traffic (analytic tier) on the scaled Origin2000; seed 1 throughout — rerun is bit-identical";
        "greedy = the default pipeline's fuse stage (adjacent sweep, Fuse.greedy); anneal = seeded restarts over legal k-way partitions, from the sweep and from unfused, then one descent pass; exact = set-partition DP, '-' where past its 12-node cap";
        "reductions sharing a scalar accumulator cannot fuse, so the instances force many partition boundaries; the sweep only fuses neighbours, and the search moves loops across them" ]
    rows

(* Predicted-vs-simulated accuracy of the analytic tier over the whole
   registry on the three default validation machines (see Accuracy). *)
let predict ?(scale = 2) () = Accuracy.table (Accuracy.measure ~scale ())

let all =
  [ ("e1", simple_example);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig8", fig8);
    ("sp", sp_utilisation);
    ("extensions", extensions);
    ("latency", latency_tolerance);
    ("ablation-fusion", ablation_fusion);
    ("ablation-pipeline", ablation_pipeline);
    ("ablation-cache", ablation_cache);
    ("ablation-padding", ablation_padding);
    ("fuse-search", fuse_search);
    ("predict", predict) ]
