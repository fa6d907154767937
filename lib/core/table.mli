(** Plain-text tables with aligned columns, used by every experiment
    driver and by the benchmark harness to print the paper's figures. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val make : title:string -> header:string list -> ?notes:string list ->
  string list list -> t

val render : Format.formatter -> t -> unit
val to_string : t -> string

(** Formatting helpers. *)
val f1 : float -> string  (** one decimal *)

val f2 : float -> string  (** two decimals *)

val mb_s : float -> string  (** bytes/s rendered as MB/s *)

val ms : float -> string  (** seconds rendered as milliseconds *)

val pct : float -> string  (** fraction rendered as percent *)
