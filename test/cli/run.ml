(* CLI stdout pins: runs every bwc invocation listed in DIR/cases from
   the current directory and compares its stdout with
   DIR/<name>.expected byte for byte.  A case that exits non-zero or
   drifts is a failure (exit 1); --promote rewrites the expected files
   instead.

     run.exe [--promote] DIR BWC *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* A case line: NAME, then VAR=VALUE environment bindings, then the
   arguments. *)
let parse_case line =
  let is_binding w =
    match String.index_opt w '=' with
    | Some i when i > 0 ->
      String.for_all (fun c -> c = '_' || (c >= 'A' && c <= 'Z')) (String.sub w 0 i)
    | _ -> false
  in
  match words line with
  | [] -> None
  | name :: rest ->
    let rec split env = function
      | w :: ws when is_binding w -> split (w :: env) ws
      | args -> (List.rev env, args)
    in
    let env, args = split [] rest in
    Some (name, env, args)

(* Run [bwc args] under the inherited environment (less any armed
   faults) plus [env]; return its exit code, stdout and stderr. *)
let run bwc env args =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun b -> not (String.starts_with ~prefix:"BWC_FAULTS=" b))
  in
  let out = Filename.temp_file "bwc-cli" ".out" in
  let err = Filename.temp_file "bwc-cli" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = open_w out and err_fd = open_w err in
  let pid =
    Unix.create_process_env bwc
      (Array.of_list (bwc :: args))
      (Array.of_list (inherited @ env))
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let first_diff expected got =
  let rec go n = function
    | e :: es, g :: gs -> if e = g then go (n + 1) (es, gs) else Some (n, e, g)
    | e :: _, [] -> Some (n, e, "<end of output>")
    | [], g :: _ -> Some (n, "<end of file>", g)
    | [], [] -> None
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' got)

let () =
  let promote, dir, bwc =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--promote"; dir; bwc ] -> (true, dir, bwc)
    | [ dir; bwc ] -> (false, dir, bwc)
    | _ ->
      prerr_endline "usage: run.exe [--promote] DIR BWC";
      exit 1
  in
  let bwc =
    if Filename.is_relative bwc then Filename.concat (Sys.getcwd ()) bwc else bwc
  in
  let cases =
    String.split_on_char '\n' (read_file (Filename.concat dir "cases"))
    |> List.filter (fun l -> not (String.starts_with ~prefix:"#" l))
    |> List.filter_map parse_case
  in
  let failures = ref 0 in
  List.iter
    (fun (name, env, args) ->
      let expected = Filename.concat dir (name ^ ".expected") in
      let fail fmt =
        incr failures;
        Printf.printf ("FAIL %s: " ^^ fmt ^^ "\n") name
      in
      match run bwc env args with
      | code, _, stderr when code <> 0 -> fail "exit %d\n%s" code stderr
      | _, got, _ when promote -> write_file expected got
      | _, got, _ -> (
        let want =
          if Sys.file_exists expected then read_file expected else ""
        in
        match first_diff want got with
        | None -> ()
        | Some (n, e, g) ->
          fail "stdout drifts at %s:%d\n  expected: %s\n  got:      %s"
            expected n e g))
    cases;
  Printf.printf "cli: %d case(s), %d failure(s)%s\n" (List.length cases)
    !failures
    (if promote then ", expected files rewritten" else "");
  if !failures > 0 then exit 1
