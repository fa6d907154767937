type entry = {
  name : string;
  description : string;
  build : scale:int -> Bw_ir.Ast.program;
}

let check_scale scale =
  if scale >= 1 && scale <= 3 then Ok scale
  else Error (Printf.sprintf "scale must be 1, 2 or 3 (got %d)" scale)

let pick ~scale a b c = match scale with 1 -> a | 2 -> b | _ -> c

let all =
  [ { name = "write_loop";
      description = "Section 2.1: a[i] = a[i] + 0.4 over a large array";
      build =
        (fun ~scale ->
          Simple_example.write_loop ~n:(pick ~scale 10_000 500_000 2_000_000)) };
    { name = "read_loop";
      description = "Section 2.1: sum += a[i] over a large array";
      build =
        (fun ~scale ->
          Simple_example.read_loop ~n:(pick ~scale 10_000 500_000 2_000_000)) };
    { name = "convolution";
      description = "Figure 1 kernel: 1-D convolution";
      build =
        (fun ~scale ->
          Kernels.convolution
            ~n:(pick ~scale 5_000 200_000 1_000_000)
            ~taps:8) };
    { name = "dmxpy";
      description = "Figure 1 kernel: Linpack dmxpy (matrix-vector)";
      build = (fun ~scale -> Kernels.dmxpy ~n:(pick ~scale 64 512 1024)) };
    { name = "mm_jki";
      description = "Figure 1 kernel: matrix multiply, jki order (-O2)";
      build = (fun ~scale -> Kernels.mm ~order:Kernels.Jki ~n:(pick ~scale 32 144 256) ()) };
    { name = "mm_blocked";
      description = "Figure 1 kernel: blocked matrix multiply (-O3)";
      build =
        (fun ~scale ->
          Kernels.mm_blocked ~n:(pick ~scale 32 144 256)
            ~tile:(pick ~scale 8 24 32)) };
    { name = "fft";
      description = "Figure 1 kernel: radix-2 FFT";
      build = (fun ~scale -> Fft.fft ~log2n:(pick ~scale 10 16 18)) };
    { name = "nas_sp";
      description = "NAS/SP-like ADI solver (7 subroutines)";
      build = (fun ~scale -> Nas_sp.full ~n:(pick ~scale 8 24 32)) };
    { name = "sweep3d";
      description = "Sweep3D-like wavefront transport sweep";
      build = (fun ~scale -> Sweep3d.sweep ~n:(pick ~scale 8 24 40) ~octants:2) };
    { name = "fig4";
      description = "Figure 4: six-loop fusion instance";
      build = (fun ~scale -> Fig4.program ~n:(pick ~scale 1_000 200_000 1_000_000)) };
    { name = "fig6";
      description = "Figure 6: shrinking/peeling program (fused form)";
      build = (fun ~scale -> Fig6.fused ~n:(pick ~scale 64 512 1024)) };
    { name = "irregular";
      description = "moldyn-like irregular particle interactions";
      build =
        (fun ~scale ->
          Irregular.interactions
            ~particles:(pick ~scale 2_000 20_000 100_000)
            ~pairs:(pick ~scale 1_000 8_000 50_000)
            ~sweeps:4) };
    { name = "fig7";
      description = "Figure 7: store-elimination program";
      build =
        (fun ~scale -> Fig7.original ~n:(pick ~scale 10_000 500_000 2_000_000)) } ]
  @ List.map
      (fun (kname, (w, r)) ->
        { name = "stride_" ^ kname;
          description = Printf.sprintf "Figure 3 kernel %s" kname;
          build =
            (fun ~scale ->
              Stride_kernels.kernel ~writes:w ~reads:r
                ~n:(pick ~scale 10_000 300_000 1_000_000)) })
      Stride_kernels.all

let find name = List.find_opt (fun e -> e.name = name) all
let names () = List.map (fun e -> e.name) all
