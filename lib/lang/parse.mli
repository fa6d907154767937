(** Recursive-descent parser for the [.bw] surface language.

    {v
    program axpy
      real a[100] = linear(1.0, 0.5)
      real b[100]
      real s
      live_out a, s
      for i = 1, 100
        a[i] = a[i] + 2.0 * b[i]
      end for
      print s
    end
    v}

    A header line [param NAME = INT] declares a size: NAME may then
    stand wherever an integer literal may (extents, seeds, bounds,
    subscripts, expressions), and every integer subexpression made of
    literals and at least one param folds to one literal, so the
    program holds no trace of it.  A source without params parses
    exactly as it would without this rule.  A [-] directly before a
    literal is part of it: [-1] is the literal [-1].

    Accepts everything {!Bw_ir.Pretty.pp_program} prints.  Comparison
    inside conditions uses [==] (or a single [=], as in the paper's
    pseudo-code), [<>], [<], [<=], [>], [>=].  [for] loops take
    [lo, hi] or [lo, hi, step] and are closed by [end for] (or
    [endfor]); [if (cond) ... else ... end if] likewise.  Every
    diagnostic — lexical, syntactic, {e and} the common semantic
    mistakes — carries a 1-based line and column:

    - undeclared variables and arrays, at the offending reference;
    - a scalar subscripted, or an array used bare / with the wrong
      number of subscripts;
    - duplicate declarations (params included), undeclared [live_out]
      names;
    - a loop index that shadows a declaration or is assigned, an
      assigned param;
    - a [~params] name the source does not declare, or one given
      twice (anchored at the [program] keyword).

    Anything the parse-time scope checks cannot see (operand typing,
    bounds) is caught by the {!Bw_ir.Check} backstop that runs on every
    successful parse; those messages are anchored at the [program]
    keyword.  Errors render as one line in the [Loader] style —
    [FILE:LINE:COL: message] — never a backtrace. *)

type error = { message : string; line : int; col : int }

(** ["LINE:COL: message"]. *)
val pp_error : Format.formatter -> error -> unit

(** ["FILE:LINE:COL: message"] when [file] is given, {!pp_error}'s
    rendering otherwise. *)
val error_to_string : ?file:string -> error -> string

(** Parse and check a whole program.  [params] (default none) replace
    the values of the params the source declares. *)
val parse_program :
  ?params:(string * int) list -> string -> (Bw_ir.Ast.program, error) result

(** @raise Invalid_argument with the rendered error on failure. *)
val parse_program_exn : string -> Bw_ir.Ast.program

(** [parse_file path] reads [path] and parses it; I/O and parse errors
    are rendered ["path:LINE:COL: message"] (I/O errors carry no
    position). *)
val parse_file : string -> (Bw_ir.Ast.program, string) result
