(* Bit-exact pins of the analytic predictor and of the optimizer.

   The corpus goldens print predictions rounded to six digits, so a
   last-bit change in [Predict] — which can flip the 2% layout gate or
   the fusion search's no-worse-than-input test — passes them.  These pins print every float with
   [%h] (exact hex) and every optimizer result as a structural digest
   plus the decisions that produced it.  [gen.exe] writes the committed
   [*.pins] files; the test suite recomputes the lines and compares. *)

open Bw_ir

let hex = Printf.sprintf "%h"

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

let gen_programs () =
  List.init 200 (fun i ->
      let seed = i + 1 in
      (Printf.sprintf "gen%d" seed, Bw_qa.Gen.generate ~seed ~size:6))

let machines =
  [ ("origin2000", Bw_machine.Machine.origin2000);
    ("exemplar", Bw_machine.Machine.exemplar);
    ("origin_scaled", Bw_core.Accuracy.origin_scaled) ]

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
  let boundaries =
    List.map (fun (b, s) -> Printf.sprintf "%s:%s" b (hex s)) t.boundary_seconds
  in
  String.concat " "
    ([ name; mname;
       "flops=" ^ hex t.flops;
       "loads=" ^ hex t.loads;
       "stores=" ^ hex t.stores;
       "fp=" ^ hex t.footprint_bytes;
       "in=" ^ hex t.memory_bytes_in;
       "out=" ^ hex t.memory_bytes_out;
       "cpu=" ^ hex t.cpu_seconds;
       "reg=" ^ hex t.register_seconds;
       "s=" ^ hex t.seconds;
       "bind=" ^ t.binding_resource ]
    @ levels @ boundaries)

let predict_programs ~corpus =
  corpus_programs ~corpus
  @ registry_programs ~scale:1
  @ registry_programs ~scale:2
  @ dag_programs () @ gen_programs ()

let predict_lines ~corpus =
  List.concat_map
    (fun (name, p) -> List.map (fun m -> predict_line name m p) machines)
    (predict_programs ~corpus)

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
