type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emit ---------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no infinity or NaN: they are emitted as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          emit item)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

(* ---------- parse (recursive descent) ---------- *)

exception Parse_error of string

let fail msg = raise (Parse_error msg)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail (Printf.sprintf "expected '%c', found '%c' at %d" ch x c.pos)
  | None -> fail (Printf.sprintf "expected '%c', found end of input" ch)

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail (Printf.sprintf "bad literal at %d" c.pos)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
        let hex = String.sub c.s c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail (Printf.sprintf "bad \\u escape at %d" c.pos)
        in
        c.pos <- c.pos + 4;
        (* The emitter only produces \u for control characters; decode
           the BMP subset as UTF-8 so round-trips are lossless. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail (Printf.sprintf "bad escape at %d" c.pos))
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail (Printf.sprintf "bad number %S at %d" text start))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> parse_literal c "null" Null
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items := parse_value c :: !items;
          go ()
        | Some ']' -> advance c
        | _ -> fail (Printf.sprintf "expected ',' or ']' at %d" c.pos)
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        (k, parse_value c)
      in
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance c
        | _ -> fail (Printf.sprintf "expected ',' or '}' at %d" c.pos)
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail (Printf.sprintf "unexpected '%c' at %d" ch c.pos)

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail (Printf.sprintf "trailing garbage at %d" c.pos);
  v

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
