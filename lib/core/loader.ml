let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> Ok src
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated read")

let load_program ~scale name =
  match Bw_workloads.Registry.find name with
  | Some entry -> (
    match entry.Bw_workloads.Registry.build ~scale with
    | p -> Ok p
    | exception e ->
      Error
        (Printf.sprintf "workload '%s' failed to build: %s" name
           (Printexc.to_string e)))
  | None -> (
    (* generated DAG-family instances ("dag<seed>x<loops>") are loadable
       by name without being registry entries, so the registry-wide
       accuracy/lint/simulate sweeps keep their fixed workload set *)
    match Bw_workloads.Dag_family.of_name name with
    | Some build -> (
      match build ~scale with
      | p -> Ok p
      | exception e ->
        Error
          (Printf.sprintf "DAG instance '%s' failed to build: %s" name
             (Printexc.to_string e)))
    | None ->
      if Sys.file_exists name then
      if Sys.is_directory name then
        Error (Printf.sprintf "'%s' is a directory, not a program" name)
      else
        (* the position-tracking front end: every parse diagnostic is
           one line, FILE:LINE:COL: message *)
        Bw_lang.Parse.parse_file name
      else
        Error
          (Printf.sprintf
             "'%s' is neither a built-in workload nor a file (try 'bwc list')"
             name))

let random_pages (m : Bw_machine.Machine.t) =
  { m with
    Bw_machine.Machine.name = m.Bw_machine.Machine.name ^ "-rp";
    paging = Bw_machine.Machine.Random_pages { page_bytes = 4096; seed = 1 } }

let machines =
  [ ("origin2000", Bw_machine.Machine.origin2000);
    ("exemplar", Bw_machine.Machine.exemplar);
    ("origin-scaled", Accuracy.origin_scaled);
    ("unconstrained", Bw_machine.Machine.unconstrained);
    ("origin-rp", random_pages Bw_machine.Machine.origin2000);
    ("exemplar-rp", random_pages Bw_machine.Machine.exemplar) ]

let machine name =
  match List.assoc_opt name machines with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown machine '%s' (known: %s)" name
         (String.concat ", " (List.map fst machines)))
