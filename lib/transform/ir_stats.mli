(** Cheap static summary of a program, computed between optimizer passes
    so every pass's span can carry before/after shape and a predicted
    balance without re-running the simulator.

    The flops and bytes are the analytic tier's
    ({!Bw_analysis.Predict.counts}), which need no machine: flops are
    float arithmetic and intrinsic calls, as the engines count them, and
    the bytes are 8 per array-element load or store, the traffic across
    the register boundary.  So [predicted_balance] is the register
    balance {!Bw_analysis.Predict} predicts, the [L1-Reg] term of
    {!Bw_exec.Run.program_balance} wherever its counts are exact. *)

type t = {
  toplevel : int;  (** top-level statements (fusion merges these) *)
  statements : int;  (** structural statement count, nested included *)
  distinct_arrays : int;  (** arrays referenced anywhere in the body *)
  est_flops : float;
  est_bytes : float;  (** register-boundary traffic: 8 bytes/element *)
  predicted_balance : float;  (** est_bytes / est_flops, bytes per flop *)
}

val of_program : Bw_ir.Ast.program -> t

(** Attributes for a span, each key prefixed (e.g. [~prefix:"before."]). *)
val span_attrs : prefix:string -> t -> (string * Bw_obs.Trace.value) list
