open Bw_ir

type t = {
  toplevel : int;
  statements : int;
  distinct_arrays : int;
  est_flops : float;
  est_bytes : float;
  predicted_balance : float;
}

let of_program (p : Ast.program) =
  let est_flops, loads, stores = Bw_analysis.Predict.counts p in
  let est_bytes = 8.0 *. (loads +. stores) in
  { toplevel = List.length p.Ast.body;
    statements = Ast_util.stmt_count p.Ast.body;
    distinct_arrays = List.length (Ast_util.arrays_accessed p p.Ast.body);
    est_flops;
    est_bytes;
    predicted_balance = est_bytes /. Float.max 1.0 est_flops }

let span_attrs ~prefix t =
  [ (prefix ^ "toplevel", Bw_obs.Trace.Int t.toplevel);
    (prefix ^ "statements", Bw_obs.Trace.Int t.statements);
    (prefix ^ "distinct_arrays", Bw_obs.Trace.Int t.distinct_arrays);
    (prefix ^ "est_flops", Bw_obs.Trace.Float t.est_flops);
    (prefix ^ "est_bytes", Bw_obs.Trace.Float t.est_bytes);
    (prefix ^ "predicted_balance", Bw_obs.Trace.Float t.predicted_balance) ]
