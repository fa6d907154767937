(** Golden-artifact rendering for the [.bw] corpus.

    One corpus entry is a [NAME.bw] source file plus a committed
    [NAME.golden] file holding everything a front-end or pass change
    could silently disturb:

    - [== parse ==]: the canonical pretty-print of the parsed program
      (also the answer [bwc fmt] gives for the file);
    - [== check ==]: the {!Bw_ir.Check} verdict and the
      {!Bw_transform.Ir_stats} shape summary, with the register balance
      the analytic tier predicts;
    - [== analysis ==]: the analytic tier of {!Bw_exec.Evaluate} on the
      Origin2000 model — flops, loads/stores, per-direction memory
      traffic, predicted seconds and the binding resource.

    Rendering is deterministic (no wall clock, no RNG, fixed [%.6g]
    float formatting), so goldens regenerate byte-identically and a
    one-byte drift is a real behaviour change. *)

(** Render the golden text for a parsed program. *)
val render : Bw_ir.Ast.program -> string

(** [golden_path "corpus/mm.bw"] is ["corpus/mm.golden"]. *)
val golden_path : string -> string

(** First differing line of two golden texts, 1-based, with both lines
    ([None] when equal).  Drives the corpus runner's one-line drift
    report. *)
val first_diff : string -> string -> (int * string * string) option
