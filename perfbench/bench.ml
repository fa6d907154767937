(* Benchmark driver:

     bench --workload compile|serve --seed N --seconds S --trace 0|1

   prints a provenance line and then one JSON result line.  With
   --trace 0 the result carries the end-to-end metrics, with --trace 1
   the per-layer ones. *)

let usage = "bench --workload compile|serve --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_of what v =
    match int_of_string_opt v with Some n -> n | None -> die (what ^ " needs an integer")
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of "--seed" v); go rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> seconds := Some s; go rest
      | _ -> die "--seconds needs a positive number")
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> trace := Some false; go rest
      | "1" -> trace := Some true; go rest
      | _ -> die "--trace takes 0 or 1")
    | [] -> ()
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go argv;
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    { Common.workload; seed; seconds; trace }
  | _ -> die "--workload, --seed, --seconds and --trace are all required"

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let run =
    match args.workload with
    | "compile" -> Compile_wl.run
    | "serve" -> Serve_wl.run
    | w -> die ("unknown workload " ^ w)
  in
  Common.emit args (run args)
