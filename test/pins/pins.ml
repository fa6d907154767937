(* Bit-exact pins of the three pricing tiers and of the optimizer.

   The corpus goldens print predictions rounded to six digits, so a
   last-bit change in [Predict] — which can flip the 2% layout gate or
   the fusion search's no-worse-than-input test — passes them.  These pins print every float with
   [%h] (exact hex) and every optimizer result as a structural digest
   plus the decisions that produced it.  [gen.exe] writes the committed
   [*.pins] files; the test suite recomputes the lines and compares. *)

open Bw_ir

let hex = Printf.sprintf "%h"

(* [name:hex] for each named term *)
let terms = List.map (fun (n, v) -> Printf.sprintf "%s:%s" n (hex v))

(* The programs, named.  [corpus] is the directory of [*.bw] sources. *)

let corpus_programs ~corpus =
  Sys.readdir corpus |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bw")
  |> List.sort compare
  |> List.map (fun f ->
         match Bw_lang.Parse.parse_file (Filename.concat corpus f) with
         | Ok p -> (f, p)
         | Error msg -> failwith msg)

let registry_programs ~scale =
  List.map
    (fun (e : Bw_workloads.Registry.entry) ->
      (Printf.sprintf "%s@%d" e.name scale, e.build ~scale))
    Bw_workloads.Registry.all

let dag_programs () = Bw_workloads.Dag_family.instances ~scale:1

(* Programs whose per-array line counts are inexact, so that the order
   in which the predictor sums arrays and groups shows in the last bits
   (two terms never would: float addition is commutative).  A symbolic
   step makes a loop's trip count sqrt(span + 1), and strides under a
   line cover part of one; each program sums at least three such arrays
   in one scope.  The two [order_nest*] programs put references both
   directly in a loop's body and in a loop inside it, in one scope, and
   differ only in their arrays' names, hence in the order a [Names]
   table folds them.  Summing the per-array maxima in first-appearance
   order moves [order_strides] and [order_nest_renamed]; putting a
   scope's sealed groups before its families moves both nests. *)
let order_programs () =
  let open Builder in
  let strided stride name =
    array ~init:(Init_hash stride) name [ 1_000 * stride ]
  in
  let at stride name =
    name $ [ (if stride = 1 then v "i" else int stride *: v "i") ]
  in
  let sweep hi body = for_ "i" (int 1) (int hi) ~step:(v "s") body in
  let nest name (x, y, z) (a, b, c, d) =
    ( name,
      program name
        ~decls:
          [ strided 1 x; strided 2 y; strided 3 z; strided 1 a; strided 2 b;
            strided 3 c; strided 5 d; int_scalar "s" ]
        ~live_out:[ x; a ]
        [ sc "s" <-- int 5;
          for_ "t" (int 1) (int 20) ~step:(v "s")
            [ (x $. [ v "t" ]) <-- ((y $ [ int 2 *: v "t" ]) +: (z $ [ int 3 *: v "t" ]));
              sweep 1_000 [ (a $. [ v "i" ]) <-- (at 2 b +: at 3 c +: at 5 d) ] ] ] )
  in
  [ ( "order_strides",
      program "order_strides"
        ~decls:
          [ strided 1 "k"; strided 2 "j"; strided 3 "h"; strided 5 "g";
            strided 7 "f"; int_scalar "s" ]
        ~live_out:[ "k" ]
        [ sc "s" <-- int 3;
          sweep 1_234
            [ ("k" $. [ v "i" ])
              <-- (at 2 "j" +: at 3 "h" +: at 5 "g" +: at 7 "f") ] ] );
    nest "order_nest" ("x", "y", "z") ("a", "b", "c", "d");
    nest "order_nest_renamed" ("u", "v", "w") ("e", "f", "g2", "h2") ]

let gen_programs () =
  List.init 200 (fun i ->
      let seed = i + 1 in
      (Printf.sprintf "gen%d" seed, Bw_qa.Gen.generate ~seed ~size:6))

(* The -rp machines place pages at random, which the predictor prices
   with the all-or-nothing hit share. *)
let loader_machine name =
  match Bw_core.Loader.machine name with
  | Ok m -> m
  | Error msg -> failwith msg

let machines =
  [ ("origin2000", Bw_machine.Machine.origin2000);
    ("exemplar", Bw_machine.Machine.exemplar);
    ("origin_scaled", Bw_core.Accuracy.origin_scaled);
    ("origin-rp", loader_machine "origin-rp");
    ("exemplar-rp", loader_machine "exemplar-rp") ]

(* ---- predictor ---------------------------------------------------- *)

let predict_line name (mname, machine) p =
  let t = Bw_analysis.Predict.predict ~machine p in
  let levels =
    List.map
      (fun (l : Bw_analysis.Predict.level) ->
        Printf.sprintf "%d/%d:%s/%s" l.capacity_bytes l.line_bytes
          (hex l.lines_in) (hex l.lines_out))
      t.levels
  in
  String.concat " "
    ([ name; mname;
       "flops=" ^ hex t.flops;
       "loads=" ^ hex t.loads;
       "stores=" ^ hex t.stores;
       "fp=" ^ hex t.footprint_bytes;
       "in=" ^ hex t.memory_bytes_in;
       "out=" ^ hex t.memory_bytes_out;
       "cpu=" ^ hex t.time.cpu_time;
       "reg=" ^ hex t.time.register_time;
       "s=" ^ hex t.time.total;
       "bind=" ^ t.time.binding_resource ]
    @ levels @ terms t.time.boundary_times)

let predict_programs ~corpus =
  corpus_programs ~corpus
  @ registry_programs ~scale:1
  @ registry_programs ~scale:2
  @ dag_programs () @ gen_programs () @ order_programs ()

let predict_lines ~corpus =
  List.concat_map
    (fun (name, p) -> List.map (fun m -> predict_line name m p) machines)
    (predict_programs ~corpus)

(* ---- exact and reuse tiers ---------------------------------------- *)

let exact_line name mname (r : Bw_exec.Run.result) =
  let b = r.breakdown in
  String.concat " "
    ([ name; mname; "exact";
       "cpu=" ^ hex b.cpu_time;
       "reg=" ^ hex b.register_time ]
    @ terms b.boundary_times
    @ [ "total=" ^ hex b.total;
        "bind=" ^ b.binding_resource;
        "balance=" ^ String.concat "," (terms (Bw_exec.Run.program_balance r)) ])

let reuse_line name mname (e : Bw_exec.Evaluate.t) =
  String.concat " "
    [ name; mname; "reuse";
      "in=" ^ hex e.memory_bytes_in;
      "out=" ^ hex e.memory_bytes_out;
      "s=" ^ hex e.seconds;
      "bind=" ^ e.binding_resource ]

(* Per program, one [simulate_many] over the six machines gives the
   exact tier's time terms and program balance; one [reuse_pass] at
   their distinct last-level line sizes gives the reuse tier's traffic
   and time on each.  Two lines per (program, machine). *)
let timing_lines ~corpus =
  let named = Bw_core.Loader.machines in
  let machines = List.map snd named in
  let granularities = List.map Bw_exec.Evaluate.reuse_granularity machines in
  let programs =
    corpus_programs ~corpus @ registry_programs ~scale:1
    @ List.filteri (fun i _ -> i < 60) (gen_programs ())
  in
  List.concat_map
    (fun (name, p) ->
      let runs = Bw_exec.Run.simulate_many ~machines p in
      let pass = Bw_exec.Run.reuse_pass ~granularities p in
      List.concat
        (List.map2
           (fun (mname, machine) r ->
             [ exact_line name mname r;
               reuse_line name mname (Bw_exec.Evaluate.of_reuse ~machine pass) ])
           named runs))
    programs

(* ---- optimizer ---------------------------------------------------- *)

let list f xs = "[" ^ String.concat ";" (List.map f xs) ^ "]"

let verdict (e : Bw_transform.Guard.event) =
  match e.verdict with
  | Committed -> e.stage
  | Rolled_back _ -> e.stage ^ "!"

(* The guarded pipeline then the layout pass, as `bwc optimize --layout`
   runs them, with every decision on the way; then the two analyses the
   pipeline calls per array or array pair, run on the source program. *)
let optimize_line name p =
  let q, (r : Bw_transform.Strategy.stage_report), events =
    Bw_transform.Strategy.run_guarded p
  in
  let final, actions = Bw_transform.Layout.run q in
  let plan = Format.asprintf "%a" Bw_transform.Shrink.pp_plan in
  String.concat " "
    [ name;
      "strategy=" ^ Digest.program q;
      "layout=" ^ Digest.program final;
      "events=" ^ list verdict events;
      Printf.sprintf "fused=%d" r.fused_loops;
      "contracted=" ^ list Fun.id r.contracted;
      "shrunk=" ^ list plan r.shrink_plans;
      "eliminated=" ^ list Fun.id r.stores_eliminated;
      Printf.sprintf "forwarded=%d" r.forwarded;
      "actions=" ^ list Bw_transform.Layout.action_to_string actions;
      "regroup="
      ^ list (fun (a, b) -> a ^ "/" ^ b) (Bw_transform.Regroup.candidates p);
      "shrink_all=" ^ list plan (snd (Bw_transform.Shrink.shrink_all p)) ]

let optimize_programs ~corpus =
  corpus_programs ~corpus @ registry_programs ~scale:1 @ gen_programs ()

let optimize_lines ~corpus =
  List.map (fun (name, p) -> optimize_line name p) (optimize_programs ~corpus)

(* ---- the paper's programs ----------------------------------------- *)

(* Every size at which the experiments, the tests and the examples build
   a paper program, besides the registry's three scales. *)
let paper_sizes =
  let n sizes = List.map (fun n -> [ ("n", n) ]) sizes in
  [ ( "convolution",
      [ [ ("n", 60_000); ("taps", 3) ]; [ ("n", 400_000); ("taps", 3) ];
        [ ("n", 150_000); ("taps", 3) ]; [ ("n", 64); ("taps", 4) ] ] );
    ("dmxpy", n [ 256; 768; 1024; 96; 128 ]);
    ("mm_jki", n [ 128; 256; 64; 144; 6; 10; 12; 20; 48; 96 ]);
    ( "mm_blocked",
      [ [ ("n", 128); ("tile", 32) ]; [ ("n", 256); ("tile", 48) ];
        [ ("n", 20); ("tile", 6) ]; [ ("n", 96); ("tile", 24) ] ] );
    ( "fft",
      List.map (fun log2n -> [ ("n", 1 lsl log2n); ("log2n", log2n) ]) [ 13; 15; 6 ] );
    ("nas_sp", n [ 16; 36; 4; 5 ]);
    ("sweep3d", n [ 16; 36; 6; 12 ]) ]

let sp_sizes = [ 16; 36; 4; 5 ]

let paper_label name params =
  String.concat " "
    (name :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params)

(* [(label, program)] for every case: the registry's entries at scales
   1-3, every other size, and SP's subroutines as sp_utilisation slices
   them.  The pinned digests are those of the builders the sources
   replaced. *)
let paper_programs () =
  let registry =
    List.concat_map
      (fun (name, _) ->
        List.map
          (fun scale ->
            ( Printf.sprintf "%s@%d" name scale,
              (Option.get (Bw_workloads.Registry.find name)).build ~scale ))
          [ 1; 2; 3 ])
      paper_sizes
  in
  let sized =
    List.concat_map
      (fun (name, sizes) ->
        List.map
          (fun params ->
            (paper_label name params, Bw_workloads.Registry.with_params name params))
          sizes)
      paper_sizes
  in
  let subroutines =
    List.concat_map
      (fun n ->
        List.map
          (fun (sub, p) -> (Printf.sprintf "nas_sp n=%d %s" n sub, p))
          (Bw_core.Experiments.sp_subroutines ~n))
      sp_sizes
  in
  registry @ sized @ subroutines

(* One line per case: its label and its program's digest. *)
let paper_lines () =
  List.map (fun (label, p) -> label ^ " " ^ Digest.program p) (paper_programs ())
