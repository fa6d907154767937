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
  params : (string, int) Hashtbl.t;  (** declared param -> its value *)
  overrides : (string * int) list;  (** values that replace the defaults *)
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

let builtin_unops = [ ("abs", Abs); ("sqrt", Sqrt); ("float", Int_to_float) ]

(* --- scope checks ------------------------------------------------------- *)

let check_scalar_ref st name pos =
  if not (Bw_ir.Ast_util.mem_name name st.indices || Hashtbl.mem st.params name)
  then
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

(* --- params ------------------------------------------------------------ *)

(* A param reference parses as [Scalar name] (no declaration or loop
   index may share its name) and is folded away at the root of the
   expression it stands in: every integer subexpression made of
   literals and at least one param becomes one literal.  [fold] returns
   the folded expression and, for such a constant, its value and
   whether a param is in it; a source without params keeps every node
   it wrote. *)
let int_binop op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Mod -> if b = 0 then None else Some (a mod b)
  | Min -> Some (min a b)
  | Max -> Some (max a b)

let rec fold st e =
  match e with
  | Int_lit n -> (e, Some (n, false))
  | Scalar name -> (
    match Hashtbl.find_opt st.params name with
    | Some v -> (Int_lit v, Some (v, true))
    | None -> (e, None))
  | Unary (((Neg | Abs) as op), a) -> (
    let f = if op = Neg then Int.neg else Int.abs in
    match fold st a with
    | _, Some (v, true) -> (Int_lit (f v), Some (f v, true))
    | a, c -> (Unary (op, a), Option.map (fun (v, p) -> (f v, p)) c))
  | Unary (op, a) -> (Unary (op, folded st a), None)
  | Binary (op, a, b) -> (
    let a, ca = fold st a and b, cb = fold st b in
    match (ca, cb) with
    | Some (x, p), Some (y, q) -> (
      match int_binop op x y with
      | Some v when p || q -> (Int_lit v, Some (v, true))
      | v -> (Binary (op, a, b), Option.map (fun v -> (v, false)) v))
    | _ -> (Binary (op, a, b), None))
  | Element (a, idxs) -> (Element (a, List.map (folded st) idxs), None)
  | Call (f, args) -> (Call (f, List.map (folded st) args), None)
  | Float_lit _ -> (e, None)

and folded st e = if Hashtbl.length st.params = 0 then e else fst (fold st e)

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
  | Lexer.MINUS -> (
    (* a '-' directly before a literal negates the literal itself, the
       way Bw_ir.Builder writes one; Pretty prints a negated literal
       as -(1) *)
    match (peek st).Lexer.token with
    | Lexer.INT n ->
      advance st;
      Int_lit (-n)
    | Lexer.FLOAT x ->
      advance st;
      Float_lit (-.x)
    | _ -> Unary (Neg, parse_factor st))
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

(* An expression that stands alone: a statement's, a bound, a
   comparison operand, a subscript of an assigned element. *)
let expression st = folded st (parse_expression st)

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
    Cmp (op, folded st lhs, expression st)

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
    if Hashtbl.mem st.decl_dims index || Hashtbl.mem st.params index then
      fail_at ipos "loop index '%s' shadows a declaration" index;
    expect st Lexer.ASSIGN;
    (* bounds and step are parsed in the enclosing scope: the loop's own
       index is not visible in them *)
    let lo = expression st in
    expect st Lexer.COMMA;
    let hi = expression st in
    let step =
      if (peek st).Lexer.token = Lexer.COMMA then begin
        advance st;
        expression st
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
    Print (expression st)
  | Lexer.IDENT _ ->
    let lv = parse_lvalue st in
    expect st Lexer.ASSIGN;
    Assign (lv, expression st)
  | other ->
    fail_at t.Lexer.pos "expected a statement, found %s"
      (Lexer.token_to_string other)

and parse_lvalue st =
  let name, pos = expect_ident st in
  if (peek st).Lexer.token = Lexer.LBRACKET then begin
    advance st;
    let idxs = parse_expr_list st Lexer.RBRACKET in
    check_element_ref st name pos (List.length idxs);
    Lelement (name, List.map (folded st) idxs)
  end
  else begin
    if Bw_ir.Ast_util.mem_name name st.indices then
      fail_at pos "loop index '%s' cannot be assigned" name;
    if Hashtbl.mem st.params name then
      fail_at pos "param '%s' cannot be assigned" name;
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

(* A number in a declaration: an extent, a seed or a lane count takes
   an integer, a [linear] coefficient any number; a param may stand for
   an integer in either. *)
let header_int st =
  let pos = (peek st).Lexer.pos in
  match expression st with
  | Int_lit n -> n
  | _ -> fail_at pos "expected an integer"

let header_number st =
  let pos = (peek st).Lexer.pos in
  match expression st with
  | Int_lit n -> float_of_int n
  | Float_lit x -> x
  | _ -> fail_at pos "expected a number"

let rec parse_init st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.KW "zero" -> Init_zero
  | Lexer.KW "linear" ->
    expect st Lexer.LPAREN;
    let a = header_number st in
    expect st Lexer.COMMA;
    let b = header_number st in
    expect st Lexer.RPAREN;
    Init_linear (a, b)
  | Lexer.KW "hash" ->
    expect st Lexer.LPAREN;
    let seed = header_int st in
    expect st Lexer.RPAREN;
    Init_hash seed
  | Lexer.KW "lanes" ->
    expect st Lexer.LPAREN;
    let inner = parse_init st in
    expect st Lexer.COMMA;
    let l = header_int st in
    expect st Lexer.RPAREN;
    Init_lanes (inner, l)
  | other ->
    fail_at t.Lexer.pos
      "expected an initialiser (zero | linear(a,b) | hash(s) | lanes(i,l)), found %s"
      (Lexer.token_to_string other)

let parse_decl st dtype =
  let var_name, npos = expect_ident st in
  if Hashtbl.mem st.decl_dims var_name || Hashtbl.mem st.params var_name then
    fail_at npos "duplicate declaration of '%s'" var_name;
  let dims =
    if (peek st).Lexer.token = Lexer.LBRACKET then begin
      advance st;
      let first = header_int st in
      let rec loop acc =
        let t = next st in
        match t.Lexer.token with
        | Lexer.RBRACKET -> List.rev acc
        | Lexer.COMMA -> loop (header_int st :: acc)
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

(* [param NAME = INT]: the value, unless the caller overrides it. *)
let parse_param st =
  let name, pos = expect_ident st in
  if Hashtbl.mem st.decl_dims name || Hashtbl.mem st.params name then
    fail_at pos "duplicate declaration of '%s'" name;
  expect st Lexer.ASSIGN;
  let default = expect_int st in
  Hashtbl.replace st.params name
    (Option.value ~default (Bw_ir.Ast_util.assoc_name name st.overrides))

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
    | Lexer.KW "param" ->
      advance st;
      parse_param st;
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
    (fun (name, _) ->
      if not (Hashtbl.mem st.params name) then
        fail_at header.Lexer.pos "unknown param '%s'" name;
      if List.length (List.filter (fun (n, _) -> n = name) st.overrides) > 1
      then fail_at header.Lexer.pos "param '%s' is given twice" name)
    st.overrides;
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

let parse_program ?(params = []) src =
  match
    let st =
      { tokens = Lexer.tokenize src;
        decl_dims = Hashtbl.create 16;
        indices = [];
        params = Hashtbl.create 4;
        overrides = params }
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
