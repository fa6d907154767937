type paging =
  | Contiguous
  | Random_pages of { page_bytes : int; seed : int }

type t = {
  name : string;
  flops_per_sec : float;
  register_bandwidth : float;
  caches : Cache.geometry list;
  cache_bandwidths : float list;
  cache_write_policy : Cache.write_policy;
  writeback_penalty : float;
  array_stagger_bytes : int;
  array_align_bytes : int;
  paging : paging;
}

let fresh_translation t =
  match t.paging with
  | Contiguous -> Translate.identity
  | Random_pages { page_bytes; seed } -> Translate.hashed ~page_bytes ~seed

let boundary_names t =
  let n = List.length t.caches in
  let cache_name i = "L" ^ string_of_int (i + 1) in
  let rec boundaries i =
    if i >= n then []
    else if i = n - 1 then [ "Mem-" ^ cache_name i ]
    else (cache_name (i + 1) ^ "-" ^ cache_name i) :: boundaries (i + 1)
  in
  if t.caches = [] then [ "Mem-Reg" ] else "L1-Reg" :: boundaries 0

let balance t =
  let bws =
    if t.caches = [] then [ t.register_bandwidth ]
    else t.register_bandwidth :: t.cache_bandwidths
  in
  List.map (fun bw -> bw /. t.flops_per_sec) bws

let fresh_cache t = Cache.create ~write_policy:t.cache_write_policy t.caches

(* SGI Origin2000, 195 MHz MIPS R10000: peak 390 Mflops (fused
   multiply-add), 32 KB 2-way L1 with 32 B lines, 4 MB 2-way unified L2
   with 128 B lines.  Bandwidths follow the paper's Figure 1 bottom row:
   4 bytes/flop to registers and between caches, 0.8 bytes/flop to memory
   (312 MB/s, matching the ~300 MB/s STREAM figure the paper cites). *)
let origin2000 =
  let flops = 390e6 in
  { name = "Origin2000";
    flops_per_sec = flops;
    register_bandwidth = 4.0 *. flops;
    caches =
      [ { Cache.size_bytes = 32 * 1024; line_bytes = 32; associativity = 2 };
        { Cache.size_bytes = 4 * 1024 * 1024;
          line_bytes = 128;
          associativity = 2 } ];
    cache_bandwidths = [ 4.0 *. flops; 0.8 *. flops ];
    cache_write_policy = Cache.Write_back;
    writeback_penalty = 1.15;
    (* IRIX-style page colouring: consecutive arrays staggered by a page,
       so parallel streams never collide in the two-way caches *)
    array_stagger_bytes = 4 * 1024;
    array_align_bytes = 4 * 1024;
    paging = Contiguous }

(* HP/Convex Exemplar, 180 MHz PA-8000: peak 720 Mflops, a single large
   off-chip direct-mapped data cache (1 MB, 32 B lines), virtually
   indexed, so cache placement follows the packed virtual layout
   directly.  Memory bandwidth set so the stride-1 kernels land in the
   paper's 417-551 MB/s band.  When enough large arrays are packed one
   after another, two of them can land on the same line index and thrash
   the direct-mapped cache — the paper's 3w6r footnote. *)
let exemplar =
  let flops = 720e6 in
  { name = "Exemplar";
    flops_per_sec = flops;
    register_bandwidth = 4.0 *. flops;
    caches =
      [ { Cache.size_bytes = 1024 * 1024; line_bytes = 32; associativity = 1 } ];
    cache_bandwidths = [ 560e6 ];
    cache_write_policy = Cache.Write_back;
    writeback_penalty = 1.4;
    array_stagger_bytes = 4096;
    array_align_bytes = 8;
    paging = Contiguous }

let unconstrained =
  let flops = 390e6 in
  { name = "Unconstrained";
    flops_per_sec = flops;
    register_bandwidth = 1e15;
    caches =
      [ { Cache.size_bytes = 32 * 1024; line_bytes = 32; associativity = 2 };
        { Cache.size_bytes = 4 * 1024 * 1024;
          line_bytes = 128;
          associativity = 2 } ];
    cache_bandwidths = [ 1e15; 1e15 ];
    cache_write_policy = Cache.Write_back;
    writeback_penalty = 1.0;
    array_stagger_bytes = 4 * 1024;
    array_align_bytes = 4 * 1024;
    paging = Contiguous }

let scaled ~name ~memory_factor m =
  let rec scale_last = function
    | [] -> []
    | [ bw ] -> [ bw *. memory_factor ]
    | bw :: rest -> bw :: scale_last rest
  in
  { m with name; cache_bandwidths = scale_last m.cache_bandwidths }

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %.0f Mflops peak@," t.name
    (t.flops_per_sec /. 1e6);
  List.iter2
    (fun name b -> Format.fprintf ppf "  %-8s %.2f bytes/flop@," name b)
    (boundary_names t) (balance t);
  Format.fprintf ppf "@]"
