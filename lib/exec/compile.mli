(** Closure-compiled execution engine.

    Compiles a checked program once — resolving every variable to its
    storage cell, every subscript to an offset computation, every
    expression to a monomorphic [unit -> float] or [unit -> int]
    closure — then runs it.  Semantics (including the deterministic
    intrinsics, initial values and the [read()] input stream) are shared
    with {!Interp}; the test suite runs both engines on every workload
    and requires bit-identical observations and event counts.

    Several times faster than the tree-walking interpreter on the large
    Figure 1/8 simulations, which is what the benchmark harness cares
    about.  Its runtime errors are {!Interp.Runtime_error}, with the
    interpreter's messages. *)

(** [run ?sink ?base_of ?input_offset p] — same contract as
    {!Interp.run}. *)
val run :
  ?sink:Interp.sink ->
  ?base_of:(string -> int) ->
  ?input_offset:int ->
  Bw_ir.Ast.program ->
  Interp.observation
