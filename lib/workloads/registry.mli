(** Name-indexed catalogue of every workload, for the CLI and benches.
    [scale] is a coarse size knob: 1 = quick test sizes, 2 = the sizes
    the experiment drivers use, 3 = stress sizes. *)

type entry = {
  name : string;
  description : string;
  build : scale:int -> Bw_ir.Ast.program;
}

(** [check_scale s] is [Ok s] for 1, 2 and 3, and a one-line error
    otherwise.  The builders here and {!Dag_family.extent} build the
    stress size for any scale but 1 and 2, so every driver that takes a
    scale from a user — the CLI's [--scale] and serve's ["scale"] field
    — checks it with this first. *)
val check_scale : int -> (int, string) result

val all : entry list
val find : string -> entry option
val names : unit -> string list
