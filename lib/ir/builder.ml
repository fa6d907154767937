(** Concise combinators for constructing IR programs.

    Workload definitions read close to the paper's pseudo-code:
    {[
      let open Bw_ir.Builder in
      program "axpy" ~decls:[ array "a" [ n ]; array "b" [ n ] ]
        ~live_out:[ "a" ]
        [ for_ "i" (int 1) (int n)
            [ "a" $. [ v "i" ] <-- (("a" $ [ v "i" ]) +: ("b" $ [ v "i" ])) ] ]
    ]} *)

open Ast

let int n = Int_lit n
let fl x = Float_lit x
let v name = Scalar name

(** Array element read: ["a" $ [v "i"; v "j"]]. *)
let ( $ ) name indices = Element (name, indices)

(** Array element lvalue: ["a" $. [v "i"]]. *)
let ( $. ) name indices = Lelement (name, indices)

let sc name = Lscalar name
let ( +: ) a b = Binary (Add, a, b)
let ( -: ) a b = Binary (Sub, a, b)
let ( *: ) a b = Binary (Mul, a, b)
let ( /: ) a b = Binary (Div, a, b)
let ( %: ) a b = Binary (Mod, a, b)
let min_ a b = Binary (Min, a, b)
let max_ a b = Binary (Max, a, b)
let neg a = Unary (Neg, a)
let sqrt_ a = Unary (Sqrt, a)
let to_float a = Unary (Int_to_float, a)
let call name args = Call (name, args)
let ( =: ) a b = Cmp (Eq, a, b)
let ( <>: ) a b = Cmp (Ne, a, b)
let ( <: ) a b = Cmp (Lt, a, b)
let ( <=: ) a b = Cmp (Le, a, b)
let ( >: ) a b = Cmp (Gt, a, b)
let ( >=: ) a b = Cmp (Ge, a, b)
let and_ a b = And (a, b)
let or_ a b = Or (a, b)
let not_ a = Not a

(** Assignment: [lhs <-- rhs]. *)
let ( <-- ) lhs rhs = Assign (lhs, rhs)

let for_ ?(step = Int_lit 1) index lo hi body =
  For { index; lo; hi; step; body }

let if_ cond then_ else_ = If (cond, then_, else_)
let read lv = Read_input lv
let print e = Print e

let scalar ?(dtype = F64) ?(init = Init_zero) var_name =
  { var_name; dtype; dims = []; init }

let array ?(dtype = F64) ?(init = Init_linear (1.0, 0.001)) var_name dims =
  if List.exists (fun d -> d <= 0) dims then
    invalid_arg "Builder.array: non-positive extent";
  { var_name; dtype; dims; init }

let int_scalar ?(init = Init_zero) var_name =
  { var_name; dtype = I64; dims = []; init }

let program ?(live_out = []) prog_name ~decls body =
  { prog_name; decls; body; live_out }
