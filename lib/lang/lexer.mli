(** Position-tracking lexer for the [.bw] surface language.

    Keywords are case-insensitive; [!] and [//] start line comments.
    Every token carries its 1-based line {e and} column, so the parser
    can report errors in the [FILE:LINE:COL: message] style. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | KW of string
  | EOF

(** 1-based source position of a token's first character.  The [EOF]
    token points just past the last character of the input. *)
type pos = { line : int; col : int }

type t = { token : token; pos : pos }

exception Lex_error of string * pos

(** Tokenize the whole input; the final element is always [EOF].
    @raise Lex_error on an unexpected character. *)
val tokenize : string -> t list

(** Human-readable rendering used in error messages, e.g.
    ["identifier 'a'"], ["','"], ["end of input"]. *)
val token_to_string : token -> string
