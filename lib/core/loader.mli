(** Resolution of the names a user gives the CLI and serve: a program
    argument (a built-in workload name from {!Bw_workloads.Registry}, or
    a path to a surface-language [.bw] file) and a machine name.

    Total: every failure mode — unknown name, missing file, a path that
    is a directory, an unreadable file, a parse error — comes back as
    [Error] with a one-line message, never as an exception, so drivers
    can print it and [exit 1] (the CLI-robustness contract tested in
    [test/test_obs.ml]). *)

val load_program :
  scale:int -> string -> (Bw_ir.Ast.program, string) result

(** Read a whole file; [Error] carries the [Sys_error] message. *)
val read_file : string -> (string, string) result

(** The machine models a user can name, in display order: origin2000,
    exemplar, origin-scaled, unconstrained, and origin-rp and
    exemplar-rp, which place array pages at pseudo-random physical
    addresses (a fixed seed keeps them reproducible), defeating the
    page-colouring assumption behind the contiguous models: the setting
    where data-layout rewrites earn their keep. *)
val machines : (string * Bw_machine.Machine.t) list

(** [machine name] looks [name] up in {!machines}; the [Error] names the
    known machines. *)
val machine : string -> (Bw_machine.Machine.t, string) result
