(** The Figure 4 fusion instance: six loops over arrays A..F plus the
    scalar [sum].

    - Loops 1-3 access {A, D, E, F} (A read-only, so no dependence ties
      them to loop 5).
    - Loop 4 accesses {B, C, D, E, F}.
    - Loop 5 reduces A into [sum].
    - Loop 6 consumes [sum] and {B, C}; the scalar makes 5 and 6
      fusion-preventing and creates the dependence 5 -> 6.

    Unfused, the six loops load 20 arrays; the optimal bandwidth-minimal
    fusion ({5} then {1,2,3,4,6}) loads 7; the optimal edge-weighted
    fusion ({1,2,3,4,5} then {6}) loads 8. *)

val program : n:int -> Bw_ir.Ast.program
