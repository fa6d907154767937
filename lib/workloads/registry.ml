type entry = {
  name : string;
  description : string;
  build : scale:int -> Bw_ir.Ast.program;
}

let check_scale scale =
  if scale >= 1 && scale <= 3 then Ok scale
  else Error (Printf.sprintf "scale must be 1, 2 or 3 (got %d)" scale)

let pick ~scale a b c = match scale with 1 -> a | 2 -> b | _ -> c

(* The paper's programs are their corpus sources, embedded at build
   time. *)
let paper_sources =
  [ ("convolution", Paper_sources.convolution);
    ("dmxpy", Paper_sources.dmxpy);
    ("mm_jki", Paper_sources.mm_jki);
    ("mm_blocked", Paper_sources.mm_blocked);
    ("fft", Paper_sources.fft);
    ("nas_sp", Paper_sources.nas_sp);
    ("sweep3d", Paper_sources.sweep3d) ]

let with_params name params =
  match Bw_ir.Ast_util.assoc_name name paper_sources with
  | None -> invalid_arg ("Registry.with_params: no paper program " ^ name)
  | Some source -> (
    match Bw_lang.Parse.parse_program ~params source with
    | Ok p -> p
    | Error e ->
      invalid_arg
        (Bw_lang.Parse.error_to_string ~file:("corpus/" ^ name ^ ".bw") e))

(* A paper program sized by [params ~scale], parsed on its first use at
   that scale by whichever domain asks first; every later call returns
   that same program. *)
let from_source name params =
  let slots = Array.init 3 (fun _ -> Atomic.make None)
  and lock = Mutex.create () in
  fun ~scale ->
    let slot = slots.(pick ~scale 0 1 2) in
    match Atomic.get slot with
    | Some p -> p
    | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get slot with
          | Some p -> p
          | None ->
            let p = with_params name (params ~scale) in
            Atomic.set slot (Some p);
            p)

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
        from_source "convolution" (fun ~scale ->
            [ ("n", pick ~scale 5_000 200_000 1_000_000) ]) };
    { name = "dmxpy";
      description = "Figure 1 kernel: Linpack dmxpy (matrix-vector)";
      build = from_source "dmxpy" (fun ~scale -> [ ("n", pick ~scale 64 512 1024) ]) };
    { name = "mm_jki";
      description = "Figure 1 kernel: matrix multiply, jki order (-O2)";
      build = from_source "mm_jki" (fun ~scale -> [ ("n", pick ~scale 32 144 256) ]) };
    { name = "mm_blocked";
      description = "Figure 1 kernel: blocked matrix multiply (-O3)";
      build =
        from_source "mm_blocked" (fun ~scale ->
            [ ("n", pick ~scale 32 144 256); ("tile", pick ~scale 8 24 32) ]) };
    { name = "fft";
      description = "Figure 1 kernel: radix-2 FFT";
      build =
        from_source "fft" (fun ~scale ->
            let log2n = pick ~scale 10 16 18 in
            [ ("n", 1 lsl log2n); ("log2n", log2n) ]) };
    { name = "nas_sp";
      description = "NAS/SP-like ADI solver (7 subroutines)";
      build = from_source "nas_sp" (fun ~scale -> [ ("n", pick ~scale 8 24 32) ]) };
    { name = "sweep3d";
      description = "Sweep3D-like wavefront transport sweep";
      build = from_source "sweep3d" (fun ~scale -> [ ("n", pick ~scale 8 24 40) ]) };
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
