open Bw_ir.Ast

type t = { const : int; terms : (string * int) list }

let normalise terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let const c = { const = c; terms = [] }
let var v = { const = 0; terms = [ (v, 1) ] }

let equal_terms =
  List.equal (fun (v1, c1) (v2, c2) -> String.equal v1 v2 && c1 = c2)

let equal a b = a.const = b.const && equal_terms a.terms b.terms

let merge f a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest -> List.map (fun (v, c) -> (v, f 0 c)) rest
    | rest, [] -> List.map (fun (v, c) -> (v, f c 0)) rest
    | (vx, cx) :: xs', (vy, cy) :: ys' ->
      let order = String.compare vx vy in
      if order = 0 then (vx, f cx cy) :: go xs' ys'
      else if order < 0 then (vx, f cx 0) :: go xs' ys
      else (vy, f 0 cy) :: go xs ys'
  in
  normalise (go a.terms b.terms)

let add a b = { const = a.const + b.const; terms = merge ( + ) a b }
let sub a b = { const = a.const - b.const; terms = merge ( - ) a b }

let scale k a =
  { const = k * a.const;
    terms = normalise (List.map (fun (v, c) -> (v, k * c)) a.terms) }

let rec of_expr = function
  | Int_lit n -> Some (const n)
  | Scalar s -> Some (var s)
  | Unary (Neg, e) -> Option.map (scale (-1)) (of_expr e)
  | Binary (Add, a, b) -> combine add a b
  | Binary (Sub, a, b) -> combine sub a b
  | Binary (Mul, a, b) -> (
    match (of_expr a, of_expr b) with
    | Some fa, Some fb when is_const_form fa -> Some (scale fa.const fb)
    | Some fa, Some fb when is_const_form fb -> Some (scale fb.const fa)
    | _ -> None)
  | Float_lit _ | Element _ | Call _
  | Unary ((Abs | Sqrt | Int_to_float), _)
  | Binary ((Div | Mod | Min | Max), _, _) ->
    None

and combine f a b =
  match (of_expr a, of_expr b) with
  | Some fa, Some fb -> Some (f fa fb)
  | _ -> None

and is_const_form t = match t.terms with [] -> true | _ :: _ -> false

let to_expr t =
  let term (v, c) =
    if c = 1 then Scalar v else Binary (Mul, Int_lit c, Scalar v)
  in
  match t.terms with
  | [] -> Int_lit t.const
  | first :: rest ->
    let sum =
      List.fold_left (fun acc tm -> Binary (Add, acc, term tm)) (term first) rest
    in
    if t.const = 0 then sum
    else if t.const > 0 then Binary (Add, sum, Int_lit t.const)
    else Binary (Sub, sum, Int_lit (-t.const))

let rec coeff_of v = function
  | [] -> 0
  | (name, c) :: rest -> if String.equal name v then c else coeff_of v rest

let coeff t v = coeff_of v t.terms

let is_const = is_const_form
let vars t = List.map fst t.terms

let eval t lookup =
  List.fold_left (fun acc (v, c) -> acc + (c * lookup v)) t.const t.terms

let drop_var t v =
  if coeff t v = 0 then t
  else
    { t with
      terms = List.filter (fun (name, _) -> not (String.equal name v)) t.terms }

let pp ppf t =
  if is_const t then Format.pp_print_int ppf t.const
  else begin
    List.iteri
      (fun i (v, c) ->
        if i > 0 || c < 0 then
          Format.pp_print_string ppf (if c < 0 then " - " else " + ");
        let c = abs c in
        if c = 1 then Format.pp_print_string ppf v
        else Format.fprintf ppf "%d*%s" c v)
      t.terms;
    if t.const > 0 then Format.fprintf ppf " + %d" t.const
    else if t.const < 0 then Format.fprintf ppf " - %d" (-t.const)
  end
