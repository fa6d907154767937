open Bw_ir.Builder

let program ~n =
  let idx = [ v "i" ] in
  let a k = k $ idx in
  let upd k rhs = (k $. idx) <-- rhs in
  program "fig4"
    ~decls:
      [ array ~init:(Init_hash 1) "a" [ n ];
        array ~init:(Init_hash 2) "b" [ n ];
        array ~init:(Init_hash 3) "c" [ n ];
        array ~init:(Init_hash 4) "d" [ n ];
        array ~init:(Init_hash 5) "e" [ n ];
        array ~init:(Init_hash 6) "f" [ n ];
        scalar "sum" ]
    ~live_out:[ "sum"; "d"; "e"; "f"; "b" ]
    [ (* loops 1-3: {a,d,e,f}, a read-only *)
      for_ "i" (int 1) (int n) [ upd "d" (a "d" +: (a "a" *: a "e") +: a "f") ];
      for_ "i" (int 1) (int n) [ upd "e" (a "e" +: (a "a" *: a "f") +: a "d") ];
      for_ "i" (int 1) (int n) [ upd "f" (a "f" +: (a "a" *: a "d") +: a "e") ];
      (* loop 4: {b,c,d,e,f} *)
      for_ "i" (int 1) (int n)
        [ upd "b" (a "b" +: a "c" +: a "d" +: a "e" +: a "f") ];
      (* loop 5: sum over a *)
      for_ "i" (int 1) (int n) [ sc "sum" <-- (v "sum" +: a "a") ];
      (* loop 6: uses sum, b, c *)
      for_ "i" (int 1) (int n)
        [ sc "sum" <-- (v "sum" +: (a "b" *: a "c")) ];
      print (v "sum") ]
