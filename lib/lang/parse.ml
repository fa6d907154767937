open Bw_ir.Ast

type error = { message : string; line : int; col : int }

let pp_error ppf e =
  Format.fprintf ppf "%d:%d: %s" e.line e.col e.message

let error_to_string ?file e =
  match file with
  | Some f -> Printf.sprintf "%s:%d:%d: %s" f e.line e.col e.message
  | None -> Printf.sprintf "%d:%d: %s" e.line e.col e.message

exception Error of error

type state = {
  mutable tokens : Lexer.t list;
  decl_dims : (string, int) Hashtbl.t;  (** declared name -> dimensions *)
  mutable indices : string list;  (** active loop indices, innermost first *)
}

let fail_at (pos : Lexer.pos) fmt =
  Printf.ksprintf
    (fun message ->
      raise (Error { message; line = pos.Lexer.line; col = pos.Lexer.col }))
    fmt

let peek st =
  match st.tokens with
  | t :: _ -> t
  | [] -> { Lexer.token = Lexer.EOF; pos = { Lexer.line = 0; col = 0 } }

let advance st =
  match st.tokens with _ :: rest -> st.tokens <- rest | [] -> ()

let next st =
  let t = peek st in
  advance st;
  t

let expect st token =
  let t = next st in
  if t.Lexer.token <> token then
    fail_at t.pos "expected %s, found %s"
      (Lexer.token_to_string token)
      (Lexer.token_to_string t.Lexer.token)

let expect_ident st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.IDENT s -> (s, t.Lexer.pos)
  | other ->
    fail_at t.pos "expected identifier, found %s" (Lexer.token_to_string other)

let expect_int st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.INT n -> n
  | other ->
    fail_at t.pos "expected integer, found %s" (Lexer.token_to_string other)

let expect_number st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.FLOAT x -> x
  | Lexer.INT n -> float_of_int n
  | Lexer.MINUS -> (
    let t2 = next st in
    match t2.Lexer.token with
    | Lexer.FLOAT x -> -.x
    | Lexer.INT n -> float_of_int (-n)
    | other ->
      fail_at t2.pos "expected number after '-', found %s"
        (Lexer.token_to_string other))
  | other ->
    fail_at t.pos "expected number, found %s" (Lexer.token_to_string other)

let builtin_unops = [ ("abs", Abs); ("sqrt", Sqrt); ("float", Int_to_float) ]

(* --- scope checks ------------------------------------------------------- *)

let check_scalar_ref st name pos =
  if not (Bw_ir.Ast_util.mem_name name st.indices) then
    match Hashtbl.find_opt st.decl_dims name with
    | Some 0 -> ()
    | Some _ -> fail_at pos "array '%s' used without subscripts" name
    | None -> fail_at pos "undeclared variable '%s'" name

let check_element_ref st name pos n_subscripts =
  match Hashtbl.find_opt st.decl_dims name with
  | Some 0 -> fail_at pos "scalar '%s' cannot be subscripted" name
  | Some d when d <> n_subscripts ->
    fail_at pos "array '%s' has %d dimension(s), found %d subscript(s)" name d
      n_subscripts
  | Some _ -> ()
  | None -> fail_at pos "undeclared array '%s'" name

(* --- expressions ------------------------------------------------------- *)

let rec parse_expression st =
  let lhs = parse_term st in
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Lexer.PLUS ->
      advance st;
      loop (Binary (Add, lhs, parse_term st))
    | Lexer.MINUS ->
      advance st;
      loop (Binary (Sub, lhs, parse_term st))
    | _ -> lhs
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop lhs =
    match (peek st).Lexer.token with
    | Lexer.STAR ->
      advance st;
      loop (Binary (Mul, lhs, parse_factor st))
    | Lexer.SLASH ->
      advance st;
      loop (Binary (Div, lhs, parse_factor st))
    | Lexer.PERCENT ->
      advance st;
      loop (Binary (Mod, lhs, parse_factor st))
    | _ -> lhs
  in
  loop lhs

and parse_factor st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.INT n -> Int_lit n
  | Lexer.FLOAT x -> Float_lit x
  | Lexer.MINUS -> Unary (Neg, parse_factor st)
  | Lexer.LPAREN ->
    let e = parse_expression st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name -> (
    match (peek st).Lexer.token with
    | Lexer.LBRACKET ->
      advance st;
      let idxs = parse_expr_list st Lexer.RBRACKET in
      check_element_ref st name t.Lexer.pos (List.length idxs);
      Element (name, idxs)
    | Lexer.LPAREN ->
      advance st;
      let args = parse_expr_list st Lexer.RPAREN in
      let lower = String.lowercase_ascii name in
      (match (Bw_ir.Ast_util.assoc_name lower builtin_unops, args) with
      | Some op, [ a ] -> Unary (op, a)
      | Some _, _ ->
        fail_at t.Lexer.pos "builtin '%s' expects exactly one argument" name
      | None, args -> (
        match (lower, args) with
        | "min", [ a; b ] -> Binary (Min, a, b)
        | "max", [ a; b ] -> Binary (Max, a, b)
        | ("min" | "max"), _ ->
          fail_at t.Lexer.pos "'%s' expects exactly two arguments" name
        | _ -> Call (name, args)))
    | _ ->
      check_scalar_ref st name t.Lexer.pos;
      Scalar name)
  | other ->
    fail_at t.Lexer.pos "expected an expression, found %s"
      (Lexer.token_to_string other)

and parse_expr_list st closing =
  if (peek st).Lexer.token = closing then begin
    advance st;
    []
  end
  else begin
    let first = parse_expression st in
    let rec loop acc =
      let t = next st in
      match t.Lexer.token with
      | c when c = closing -> List.rev acc
      | Lexer.COMMA -> loop (parse_expression st :: acc)
      | other ->
        fail_at t.Lexer.pos "expected ',' or %s, found %s"
          (Lexer.token_to_string closing)
          (Lexer.token_to_string other)
    in
    loop [ first ]
  end

(* --- conditions -------------------------------------------------------- *)

let rec parse_cond st =
  let lhs = parse_conjunction st in
  match (peek st).Lexer.token with
  | Lexer.KW "or" ->
    advance st;
    Or (lhs, parse_cond st)
  | _ -> lhs

and parse_conjunction st =
  let lhs = parse_cond_atom st in
  match (peek st).Lexer.token with
  | Lexer.KW "and" ->
    advance st;
    And (lhs, parse_conjunction st)
  | _ -> lhs

and parse_cond_atom st =
  match (peek st).Lexer.token with
  | Lexer.KW "not" ->
    advance st;
    expect st Lexer.LPAREN;
    let c = parse_cond st in
    expect st Lexer.RPAREN;
    Not c
  | Lexer.LPAREN -> (
    (* a '(' may open a nested condition — what the pretty-printer emits
       for and/or — or a parenthesized comparison operand; try the
       condition reading first and fall back on the operand one *)
    let saved = st.tokens in
    match
      advance st;
      let c = parse_cond st in
      expect st Lexer.RPAREN;
      c
    with
    | c -> c
    | exception Error _ ->
      st.tokens <- saved;
      parse_comparison st)
  | _ -> parse_comparison st

and parse_comparison st =
    let lhs = parse_expression st in
    let t = next st in
    let op =
      match t.Lexer.token with
      | Lexer.EQ | Lexer.ASSIGN -> Eq
      | Lexer.NE -> Ne
      | Lexer.LT -> Lt
      | Lexer.LE -> Le
      | Lexer.GT -> Gt
      | Lexer.GE -> Ge
      | other ->
        fail_at t.Lexer.pos "expected a comparison operator, found %s"
          (Lexer.token_to_string other)
    in
    Cmp (op, lhs, parse_expression st)

(* --- statements -------------------------------------------------------- *)

let rec parse_stmts st ~stop =
  let rec loop acc =
    let t = peek st in
    match t.Lexer.token with
    | Lexer.KW k when Bw_ir.Ast_util.mem_name k stop -> List.rev acc
    | Lexer.EOF -> fail_at t.Lexer.pos "unexpected end of input inside a block"
    | _ -> loop (parse_stmt st :: acc)
  in
  loop []

and parse_stmt st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.KW "for" ->
    advance st;
    let index, ipos = expect_ident st in
    if Hashtbl.mem st.decl_dims index then
      fail_at ipos "loop index '%s' shadows a declaration" index;
    expect st Lexer.ASSIGN;
    (* bounds and step are parsed in the enclosing scope: the loop's own
       index is not visible in them *)
    let lo = parse_expression st in
    expect st Lexer.COMMA;
    let hi = parse_expression st in
    let step =
      if (peek st).Lexer.token = Lexer.COMMA then begin
        advance st;
        parse_expression st
      end
      else Int_lit 1
    in
    st.indices <- index :: st.indices;
    let body = parse_stmts st ~stop:[ "end"; "endfor" ] in
    st.indices <- List.tl st.indices;
    close_block st ~short:"endfor" ~long:"for";
    For { index; lo; hi; step; body }
  | Lexer.KW "if" ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_cond st in
    expect st Lexer.RPAREN;
    let then_ = parse_stmts st ~stop:[ "else"; "end"; "endif" ] in
    let else_ =
      if (peek st).Lexer.token = Lexer.KW "else" then begin
        advance st;
        parse_stmts st ~stop:[ "end"; "endif" ]
      end
      else []
    in
    close_block st ~short:"endif" ~long:"if";
    If (cond, then_, else_)
  | Lexer.KW "read" ->
    advance st;
    expect st Lexer.LPAREN;
    let lv = parse_lvalue st in
    expect st Lexer.RPAREN;
    Read_input lv
  | Lexer.KW "print" ->
    advance st;
    Print (parse_expression st)
  | Lexer.IDENT _ ->
    let lv = parse_lvalue st in
    expect st Lexer.ASSIGN;
    Assign (lv, parse_expression st)
  | other ->
    fail_at t.Lexer.pos "expected a statement, found %s"
      (Lexer.token_to_string other)

and parse_lvalue st =
  let name, pos = expect_ident st in
  if (peek st).Lexer.token = Lexer.LBRACKET then begin
    advance st;
    let idxs = parse_expr_list st Lexer.RBRACKET in
    check_element_ref st name pos (List.length idxs);
    Lelement (name, idxs)
  end
  else begin
    if Bw_ir.Ast_util.mem_name name st.indices then
      fail_at pos "loop index '%s' cannot be assigned" name;
    check_scalar_ref st name pos;
    Lscalar name
  end

and close_block st ~short ~long =
  let t = next st in
  match t.Lexer.token with
  | Lexer.KW k when k = short -> ()
  | Lexer.KW "end" -> (
    match (peek st).Lexer.token with
    | Lexer.KW k when k = long -> advance st
    | Lexer.KW "if" when long = "if" -> advance st
    | _ -> fail_at t.Lexer.pos "expected 'end %s'" long)
  | other ->
    fail_at t.Lexer.pos "expected 'end %s', found %s" long
      (Lexer.token_to_string other)

(* --- declarations and program ------------------------------------------ *)

let rec parse_init st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.KW "zero" -> Init_zero
  | Lexer.KW "linear" ->
    expect st Lexer.LPAREN;
    let a = expect_number st in
    expect st Lexer.COMMA;
    let b = expect_number st in
    expect st Lexer.RPAREN;
    Init_linear (a, b)
  | Lexer.KW "hash" ->
    expect st Lexer.LPAREN;
    let seed = expect_int st in
    expect st Lexer.RPAREN;
    Init_hash seed
  | Lexer.KW "lanes" ->
    expect st Lexer.LPAREN;
    let inner = parse_init st in
    expect st Lexer.COMMA;
    let l = expect_int st in
    expect st Lexer.RPAREN;
    Init_lanes (inner, l)
  | other ->
    fail_at t.Lexer.pos
      "expected an initialiser (zero | linear(a,b) | hash(s) | lanes(i,l)), found %s"
      (Lexer.token_to_string other)

let parse_decl st dtype =
  let var_name, npos = expect_ident st in
  if Hashtbl.mem st.decl_dims var_name then
    fail_at npos "duplicate declaration of '%s'" var_name;
  let dims =
    if (peek st).Lexer.token = Lexer.LBRACKET then begin
      advance st;
      let first = expect_int st in
      let rec loop acc =
        let t = next st in
        match t.Lexer.token with
        | Lexer.RBRACKET -> List.rev acc
        | Lexer.COMMA -> loop (expect_int st :: acc)
        | other ->
          fail_at t.Lexer.pos "expected ',' or ']', found %s"
            (Lexer.token_to_string other)
      in
      loop [ first ]
    end
    else []
  in
  let init =
    if (peek st).Lexer.token = Lexer.ASSIGN then begin
      advance st;
      parse_init st
    end
    else if dims = [] then Init_zero
    else Init_linear (1.0, 0.001)
  in
  Hashtbl.replace st.decl_dims var_name (List.length dims);
  { var_name; dtype; dims; init }

let parse_program_tokens st =
  let header = peek st in
  expect st (Lexer.KW "program");
  let prog_name, _ = expect_ident st in
  let decls = ref [] and live_out = ref [] in
  let rec parse_header () =
    match (peek st).Lexer.token with
    | Lexer.KW "real" ->
      advance st;
      decls := parse_decl st F64 :: !decls;
      parse_header ()
    | Lexer.KW "integer" ->
      advance st;
      decls := parse_decl st I64 :: !decls;
      parse_header ()
    | Lexer.KW "live_out" ->
      advance st;
      let rec names acc =
        let name = expect_ident st in
        if (peek st).Lexer.token = Lexer.COMMA then begin
          advance st;
          names (name :: acc)
        end
        else List.rev (name :: acc)
      in
      live_out := !live_out @ names [];
      parse_header ()
    | _ -> ()
  in
  parse_header ();
  List.iter
    (fun (name, pos) ->
      if not (Hashtbl.mem st.decl_dims name) then
        fail_at pos "live_out name '%s' is not declared" name)
    !live_out;
  let body = parse_stmts st ~stop:[ "end" ] in
  expect st (Lexer.KW "end");
  (match (peek st).Lexer.token with
  | Lexer.EOF -> ()
  | other ->
    fail_at (peek st).Lexer.pos "trailing input after 'end': %s"
      (Lexer.token_to_string other));
  let program =
    { prog_name;
      decls = List.rev !decls;
      body;
      live_out = List.map fst !live_out }
  in
  (* backstop for what the scope checks cannot see (operand typing,
     subscript bounds); anchored at the 'program' keyword *)
  (match Bw_ir.Check.check program with
  | Ok () -> ()
  | Error es ->
    fail_at header.Lexer.pos "%s"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Bw_ir.Check.pp_error e) es)));
  program

let parse_program src =
  match
    let st =
      { tokens = Lexer.tokenize src;
        decl_dims = Hashtbl.create 16;
        indices = [] }
    in
    parse_program_tokens st
  with
  | program -> Ok program
  | exception Error e -> Error e
  | exception Lexer.Lex_error (message, pos) ->
    Error { message; line = pos.Lexer.line; col = pos.Lexer.col }

let parse_program_exn src =
  match parse_program src with
  | Ok p -> p
  | Error e -> invalid_arg (error_to_string e)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> Ok src
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated read")

let parse_file path =
  Result.bind (read_file path) (fun src ->
      match parse_program src with
      | Ok p -> Ok p
      | Error e -> Error (error_to_string ~file:path e))
