(* Machine exploration: how much memory bandwidth would a machine need
   before a bandwidth-bound kernel becomes CPU-bound?  The paper argues
   (Section 2.2) that matching the demand of its applications would take
   1-3 GB/s against the Origin2000's 300 MB/s; this example sweeps the
   model's memory bus to find the crossover for each kernel.

     dune exec examples/machine_explorer.exe *)

let kernels =
  [ ("1w1r update", Bw_workloads.Stride_kernels.kernel ~writes:1 ~reads:1 ~n:200_000);
    ("0w2r dot product", Bw_workloads.Stride_kernels.kernel ~writes:0 ~reads:2 ~n:200_000);
    ( "convolution (3 taps)",
      Bw_workloads.Registry.with_params "convolution" [ ("n", 150_000); ("taps", 3) ] );
    ("dmxpy", Bw_workloads.Registry.with_params "dmxpy" [ ("n", 1024) ]) ]

let factors = [ 1.0; 2.0; 4.0; 8.0; 16.0 ]

let () =
  Format.printf
    "Binding resource as the Origin2000 memory bus is scaled up:@.@.";
  Format.printf "%-22s" "kernel";
  List.iter (fun f -> Format.printf "  %8s" (Printf.sprintf "%gx" f)) factors;
  Format.printf "@.";
  List.iter
    (fun (name, p) ->
      Format.printf "%-22s" name;
      List.iter
        (fun factor ->
          let machine =
            Bw_machine.Machine.scaled
              ~name:(Printf.sprintf "origin-x%g" factor)
              ~memory_factor:factor Bw_machine.Machine.origin2000
          in
          let r = Bw_exec.Run.simulate ~machine p in
          Format.printf "  %8s"
            r.Bw_exec.Run.breakdown.Bw_machine.Timing.binding_resource)
        factors;
      Format.printf "@.")
    kernels;
  Format.printf
    "@.(the paper: applications need 3.4x-10.5x the Origin2000's memory \
     bandwidth@. to stop being memory-bound -- 1.02 to 3.15 GB/s)@.";
  (* quantify one crossover precisely *)
  let p = Bw_workloads.Registry.with_params "dmxpy" [ ("n", 1024) ] in
  let rec search lo hi iters =
    if iters = 0 then (lo +. hi) /. 2.0
    else begin
      let mid = (lo +. hi) /. 2.0 in
      let machine =
        Bw_machine.Machine.scaled ~name:"probe" ~memory_factor:mid
          Bw_machine.Machine.origin2000
      in
      let r = Bw_exec.Run.simulate ~machine p in
      if
        String.equal
          r.Bw_exec.Run.breakdown.Bw_machine.Timing.binding_resource "Mem-L2"
      then search mid hi (iters - 1)
      else search lo mid (iters - 1)
    end
  in
  let crossover = search 1.0 32.0 12 in
  Format.printf
    "@.dmxpy stops being memory-bound at ~%.1fx the Origin2000 bus (%.2f GB/s),@."
    crossover
    (crossover *. 312e6 /. 1e9);
  Format.printf
    "at which point register bandwidth — the paper's second most critical@.";
  Format.printf "resource — becomes the wall.@."
