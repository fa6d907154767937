(** A minimal, dependency-free JSON representation.

    Grown out of the benchmark harness's machine-readable output and now
    shared by every JSON producer/consumer in the repository: the bench
    harness, the Chrome trace export, and the [bwc serve] wire protocol
    ({!Bw_serve.Protocol}).

    Deliberately tiny: objects, arrays, strings, numbers, booleans and
    null.  The parser accepts exactly what {!to_string} emits (standard
    JSON with the common escapes; a non-finite [Float], which JSON
    cannot express, is emitted as [null]), and the emitter is deterministic —
    the same value always serialises to the same bytes, a property the
    serve result cache's byte-identical-hit guarantee relies on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

exception Parse_error of string

(** Parse a complete JSON document; raises {!Parse_error} on malformed
    input or trailing garbage. *)
val parse : string -> t

(** Accessors returning [None] on shape mismatch. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_float : t -> float option (* accepts Int too *)
val to_str : t -> string option

(** More accessors for the wire protocol; same [None]-on-mismatch
    contract. *)

val to_int : t -> int option (* Int only; floats are not truncated *)
val to_bool : t -> bool option
