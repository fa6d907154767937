open Ast

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let cmpop_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Precedence levels for parenthesis elision: higher binds tighter. *)
let binop_prec = function
  | Add | Sub -> 1
  | Mul | Div | Mod -> 2
  | Min | Max -> 3

(* Shortest float rendering that re-reads to the same value: %g when it
   is lossless (almost always), full precision otherwise.  Integral
   values keep a trailing ".0" so the token re-lexes as a float — "x =
   0" would re-parse as an integer literal and fail the type check.
   Keeps printed programs re-parseable to an equal AST. *)
let float_repr x =
  let s = Printf.sprintf "%g" x in
  let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let rec pp_expr_prec prec ppf e =
  match e with
  | Int_lit n -> Format.pp_print_int ppf n
  | Float_lit x -> Format.pp_print_string ppf (float_repr x)
  | Scalar s -> Format.pp_print_string ppf s
  | Element (a, idxs) ->
    Format.fprintf ppf "%s[%a]" a
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (pp_expr_prec 0))
      idxs
  | Unary (Neg, ((Int_lit _ | Float_lit _) as a)) ->
    (* "-1" re-parses as the literal -1 *)
    Format.fprintf ppf "-(%a)" (pp_expr_prec 0) a
  | Unary (Neg, a) -> Format.fprintf ppf "-%a" (pp_expr_prec 9) a
  | Unary (Abs, a) -> Format.fprintf ppf "abs(%a)" (pp_expr_prec 0) a
  | Unary (Sqrt, a) -> Format.fprintf ppf "sqrt(%a)" (pp_expr_prec 0) a
  | Unary (Int_to_float, a) -> Format.fprintf ppf "float(%a)" (pp_expr_prec 0) a
  | Binary (((Min | Max) as op), a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (binop_symbol op) (pp_expr_prec 0) a
      (pp_expr_prec 0) b
  | Binary (op, a, b) ->
    let p = binop_prec op in
    let open_paren = p < prec in
    if open_paren then Format.pp_print_string ppf "(";
    Format.fprintf ppf "%a %s %a" (pp_expr_prec p) a (binop_symbol op)
      (pp_expr_prec (p + 1))
      b;
    if open_paren then Format.pp_print_string ppf ")"
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_expr_prec 0))
      args

let pp_expr ppf e = pp_expr_prec 0 ppf e

let rec pp_cond ppf = function
  | Cmp (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (cmpop_symbol op) pp_expr b
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp_cond a pp_cond b
  | Not a -> Format.fprintf ppf "not (%a)" pp_cond a

let pp_lvalue ppf = function
  | Lscalar s -> Format.pp_print_string ppf s
  | Lelement (a, idxs) ->
    Format.fprintf ppf "%s[%a]" a
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         pp_expr)
      idxs

let rec pp_stmt ppf = function
  | Assign (lv, e) -> Format.fprintf ppf "@[<h>%a = %a@]" pp_lvalue lv pp_expr e
  | Read_input lv -> Format.fprintf ppf "@[<h>read(%a)@]" pp_lvalue lv
  | Print e -> Format.fprintf ppf "@[<h>print %a@]" pp_expr e
  | If (c, t, []) ->
    Format.fprintf ppf "@[<v 2>if (%a)@,%a@]@,end if" pp_cond c pp_stmts t
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if (%a)@,%a@]@,@[<v 2>else@,%a@]@,end if"
      pp_cond c pp_stmts t pp_stmts e
  | For { index; lo; hi; step; body } ->
    let pp_header ppf () =
      match step with
      | Int_lit 1 ->
        Format.fprintf ppf "For %s=%a, %a" index pp_expr lo pp_expr hi
      | _ ->
        Format.fprintf ppf "For %s=%a, %a, %a" index pp_expr lo pp_expr hi
          pp_expr step
    in
    Format.fprintf ppf "@[<v 2>%a@,%a@]@,End for" pp_header () pp_stmts body

and pp_stmts ppf stmts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    pp_stmt ppf stmts

let rec pp_init ppf = function
  | Init_zero -> Format.pp_print_string ppf "zero"
  | Init_linear (a, b) ->
    Format.fprintf ppf "linear(%s, %s)" (float_repr a) (float_repr b)
  | Init_hash seed -> Format.fprintf ppf "hash(%d)" seed
  | Init_lanes (inner, l) -> Format.fprintf ppf "lanes(%a, %d)" pp_init inner l

(* The parser's defaults; a decl carrying one round-trips without being
   printed, so the common case stays as terse as the paper's listings. *)
let default_init d =
  if d.dims = [] then Init_zero else Init_linear (1.0, 0.001)

let pp_decl ppf d =
  let type_name = match d.dtype with F64 -> "real" | I64 -> "integer" in
  (match d.dims with
  | [] -> Format.fprintf ppf "%s %s" type_name d.var_name
  | dims ->
    Format.fprintf ppf "%s %s[%a]" type_name d.var_name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      dims);
  if not (equal_init d.init (default_init d)) then
    Format.fprintf ppf " = %a" pp_init d.init

let pp_program ppf p =
  Format.fprintf ppf "@[<v>program %s@," p.prog_name;
  List.iter (fun d -> Format.fprintf ppf "  %a@," pp_decl d) p.decls;
  if p.live_out <> [] then
    Format.fprintf ppf "  live_out %s@," (String.concat ", " p.live_out);
  Format.fprintf ppf "@[<v>%a@]@,end@]" pp_stmts p.body

let expr_to_string e = Format.asprintf "%a" pp_expr e
let program_to_string p = Format.asprintf "%a" pp_program p
