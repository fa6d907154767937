open Bw_ir.Builder

let write_loop ~n =
  program "write_loop"
    ~decls:[ array "a" [ n ] ]
    ~live_out:[ "a" ]
    [ for_ "i" (int 1) (int n)
        [ ("a" $. [ v "i" ]) <-- (("a" $ [ v "i" ]) +: fl 0.4) ] ]

let read_loop ~n =
  program "read_loop"
    ~decls:[ array "a" [ n ]; scalar "sum" ]
    ~live_out:[ "sum" ]
    [ for_ "i" (int 1) (int n)
        [ sc "sum" <-- (v "sum" +: ("a" $ [ v "i" ])) ];
      print (v "sum") ]
