(** The stride-one read/write kernels of Figure 3.

    A kernel [wWrR] reads [R] distinct arrays in unit stride and writes
    [W] of them; e.g. [1w2r] is [a[i] = a[i] + b[i]] and [0w2r] is
    [s = s + a[i]*b[i]].  The paper measures 13 such kernels and shows
    they all saturate memory bandwidth. *)

(** [kernel ~writes ~reads ~n] with [0 <= writes <= reads], [reads >= 1].
    The program is named after its registry entry, e.g. [stride_1w2r]:
    a name that starts with a digit would not re-parse.
    @raise Invalid_argument outside that range. *)
val kernel : writes:int -> reads:int -> n:int -> Bw_ir.Ast.program

(** The 13 paper kernels in presentation order:
    1w1r 2w2r 3w3r 1w2r 1w3r 1w4r 2w3r 2w4r 2w5r 3w6r 0w1r 0w2r 0w3r. *)
val all : (string * (int * int)) list
