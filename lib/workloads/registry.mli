(** Name-indexed catalogue of every workload, for the CLI and benches.
    [scale] is a coarse size knob: 1 = quick test sizes, 2 = the sizes
    the experiment drivers use, 3 = stress sizes. *)

type entry = {
  name : string;
  description : string;
  build : scale:int -> Bw_ir.Ast.program;
}

(** [check_scale s] is [Ok s] for 1, 2 and 3, and a one-line error
    otherwise.  Every entry's [build] and {!Dag_family.extent} give the
    stress size for any scale but 1 and 2, so every driver that takes a
    scale from a user — the CLI's [--scale] and serve's ["scale"] field
    — checks it with this first. *)
val check_scale : int -> (int, string) result

(** Every workload.  The paper's programs — convolution, dmxpy,
    mm_jki, mm_blocked, fft, nas_sp and sweep3d — are the [corpus/*.bw]
    sources of the same names, embedded at build time and sized by
    their params at each scale.  Each is parsed on its first [build] at
    a scale, once per process whichever domain asks, and every later
    [build] at that scale returns the same program. *)
val all : entry list
val find : string -> entry option
val names : unit -> string list

(** [with_params name params] parses the paper program [name]'s
    source with [params] in place of the defaults it declares, e.g.
    [with_params "convolution" [ ("n", 60_000); ("taps", 3) ]]; fft
    takes both [n] and [log2n].  Parsed anew at every call.
    @raise Invalid_argument for a name that is not a paper program, or
    a param its source does not declare. *)
val with_params : string -> (string * int) list -> Bw_ir.Ast.program
