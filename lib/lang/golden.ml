let fl x = Printf.sprintf "%.6g" x

let render (p : Bw_ir.Ast.program) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== parse ==\n";
  add "%s\n" (Bw_ir.Pretty.program_to_string p);
  add "\n== check ==\n";
  (match Bw_ir.Check.check p with
  | Ok () -> add "ok\n"
  | Error es ->
    List.iter
      (fun e -> add "error: %s\n" (Format.asprintf "%a" Bw_ir.Check.pp_error e))
      es);
  let s = Bw_transform.Ir_stats.of_program p in
  add "toplevel: %d\n" s.Bw_transform.Ir_stats.toplevel;
  add "statements: %d\n" s.Bw_transform.Ir_stats.statements;
  add "distinct arrays: %d\n" s.Bw_transform.Ir_stats.distinct_arrays;
  add "predicted balance: %s\n" (fl s.Bw_transform.Ir_stats.predicted_balance);
  let machine = Bw_machine.Machine.origin2000 in
  let e = Bw_exec.Evaluate.of_program ~machine p in
  add "\n== analysis ==\n";
  add "machine: %s\n" machine.Bw_machine.Machine.name;
  add "fidelity: %s\n" (Bw_exec.Evaluate.fidelity_name e.Bw_exec.Evaluate.fidelity);
  add "flops: %s\n" (fl e.Bw_exec.Evaluate.flops);
  add "loads: %s\n" (fl e.Bw_exec.Evaluate.loads);
  add "stores: %s\n" (fl e.Bw_exec.Evaluate.stores);
  add "memory bytes in: %s\n" (fl e.Bw_exec.Evaluate.memory_bytes_in);
  add "memory bytes out: %s\n" (fl e.Bw_exec.Evaluate.memory_bytes_out);
  add "predicted seconds: %s\n" (fl e.Bw_exec.Evaluate.seconds);
  add "binding resource: %s\n" e.Bw_exec.Evaluate.binding_resource;
  Buffer.contents buf

let golden_path bw_path =
  (if Filename.check_suffix bw_path ".bw" then Filename.chop_suffix bw_path ".bw"
   else bw_path)
  ^ ".golden"

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb -> if x = y then go (i + 1) la lb else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of file>")
    | [], y :: _ -> Some (i, "<end of file>", y)
  in
  go 1 la lb
