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

type pos = { line : int; col : int }

type t = { token : token; pos : pos }

exception Lex_error of string * pos

let is_keyword = function
  | "program" | "end" | "for" | "endfor" | "if" | "endif" | "else" | "read"
  | "print" | "real" | "integer" | "live_out" | "and" | "or" | "not" | "zero"
  | "linear" | "hash" | "lanes" | "init" | "param" ->
    true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'
let is_alpha c = (c >= 'a' && c <= 'z') || is_upper c || c = '_'
let is_alnum c = is_digit c || is_alpha c

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  (* byte offset of the first character of the current line; column of
     offset [p] is [p - bol + 1] *)
  let bol = ref 0 in
  let pos = ref 0 in
  let here () = { line = !line; col = !pos - !bol + 1 } in
  let emit_at p token = tokens := { token; pos = p } :: !tokens in
  let advance () = incr pos in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      advance ();
      bol := !pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then advance ()
    else if c = '!' || (c = '/' && !pos + 1 < n && src.[!pos + 1] = '/') then begin
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    end
    else if is_digit c then begin
      let start_pos = here () in
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        advance ()
      done;
      let is_float = ref false in
      if
        !pos < n
        && src.[!pos] = '.'
        && !pos + 1 < n
        && is_digit src.[!pos + 1]
      then begin
        is_float := true;
        advance ();
        while !pos < n && is_digit src.[!pos] do
          advance ()
        done
      end;
      if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
        is_float := true;
        advance ();
        if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then advance ();
        while !pos < n && is_digit src.[!pos] do
          advance ()
        done
      end;
      let text = String.sub src start (!pos - start) in
      let refuse kind why =
        raise (Lex_error (kind ^ " " ^ text ^ " " ^ why, start_pos))
      in
      if !is_float then
        match float_of_string_opt text with
        | Some x when Float.is_finite x -> emit_at start_pos (FLOAT x)
        | Some _ -> refuse "float" "is beyond the double range"
        | None -> refuse "float" "has no exponent digits"
      else
        match int_of_string_opt text with
        | Some i -> emit_at start_pos (INT i)
        | None -> refuse "integer" "is beyond max_int"
    end
    else if is_alpha c then begin
      let start_pos = here () in
      let start = !pos in
      while !pos < n && is_alnum src.[!pos] do
        advance ()
      done;
      let text = String.sub src start (!pos - start) in
      (* keywords are case-insensitive; most identifiers are lower case
         already and skip the copy *)
      let lower =
        if String.exists is_upper text then String.lowercase_ascii text
        else text
      in
      if is_keyword lower then emit_at start_pos (KW lower)
      else emit_at start_pos (IDENT text)
    end
    else begin
      let start_pos = here () in
      let two tok =
        emit_at start_pos tok;
        advance ();
        advance ()
      in
      match (c, if !pos + 1 < n then src.[!pos + 1] else '\000') with
      | '=', '=' -> two EQ
      | '<', '>' -> two NE
      | '<', '=' -> two LE
      | '>', '=' -> two GE
      | _ -> (
        advance ();
        match c with
        | '(' -> emit_at start_pos LPAREN
        | ')' -> emit_at start_pos RPAREN
        | '[' -> emit_at start_pos LBRACKET
        | ']' -> emit_at start_pos RBRACKET
        | ',' -> emit_at start_pos COMMA
        | '=' -> emit_at start_pos ASSIGN
        | '+' -> emit_at start_pos PLUS
        | '-' -> emit_at start_pos MINUS
        | '*' -> emit_at start_pos STAR
        | '/' -> emit_at start_pos SLASH
        | '%' -> emit_at start_pos PERCENT
        | '<' -> emit_at start_pos LT
        | '>' -> emit_at start_pos GT
        | _ ->
          raise
            (Lex_error
               (Printf.sprintf "unexpected character '%c'" c, start_pos)))
    end
  done;
  tokens := { token = EOF; pos = here () } :: !tokens;
  List.rev !tokens

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier '%s'" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT x -> Printf.sprintf "float %g" x
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | ASSIGN -> "'='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | EQ -> "'=='"
  | NE -> "'<>'"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | KW k -> Printf.sprintf "keyword '%s'" k
  | EOF -> "end of input"
