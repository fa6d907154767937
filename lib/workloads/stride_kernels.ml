open Bw_ir.Builder

let name ~writes ~reads = Printf.sprintf "%dw%dr" writes reads

let array_name k = Printf.sprintf "a%d" (k + 1)

let kernel ~writes ~reads ~n =
  if reads < 1 || writes < 0 || writes > reads then
    invalid_arg "Stride_kernels.kernel: need 0 <= writes <= reads, reads >= 1";
  let arrays = List.init reads (fun k -> array ~init:(Init_hash k) (array_name k) [ n ]) in
  let idx = [ v "i" ] in
  let body =
    if writes = 0 then
      (* pure reads feed a scalar reduction *)
      let sum_expr =
        List.fold_left
          (fun acc k ->
            match acc with
            | None -> Some (array_name k $ idx)
            | Some e -> Some (e +: (array_name k $ idx)))
          None
          (List.init reads (fun k -> k))
        |> Option.get
      in
      [ sc "s" <-- (v "s" +: sum_expr) ]
    else begin
      (* write array k gets its own value plus a share of the read-only
         arrays, so every array is read and the first [writes] written *)
      let read_only = List.init (reads - writes) (fun k -> writes + k) in
      List.init writes (fun k ->
          let extras =
            List.filteri (fun j _ -> j mod writes = k) read_only
          in
          let rhs =
            List.fold_left
              (fun acc r -> acc +: (array_name r $ idx))
              (array_name k $ idx)
              extras
          in
          (array_name k $. idx) <-- (rhs +: fl 1.0e-3))
    end
  in
  let decls = if writes = 0 then arrays @ [ scalar "s" ] else arrays in
  let live_out =
    if writes = 0 then [ "s" ] else List.init writes array_name
  in
  program ("stride_" ^ name ~writes ~reads) ~decls ~live_out
    [ for_ "i" (int 1) (int n) body ]

let all =
  [ ("1w1r", (1, 1));
    ("2w2r", (2, 2));
    ("3w3r", (3, 3));
    ("1w2r", (1, 2));
    ("1w3r", (1, 3));
    ("1w4r", (1, 4));
    ("2w3r", (2, 3));
    ("2w4r", (2, 4));
    ("2w5r", (2, 5));
    ("3w6r", (3, 6));
    ("0w1r", (0, 1));
    ("0w2r", (0, 2));
    ("0w3r", (0, 3)) ]
