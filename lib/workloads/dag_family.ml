(* Seeded generator for large elementwise/reduction operation DAGs in
   the style of runtime array-programming fusion (Kristensen et al.):
   hundreds of single-statement loops over a pool of "big" streamed
   arrays and "small" temporaries, plus scalar reductions onto a handful
   of shared accumulators.  Two reductions onto the same accumulator are
   fusion-preventing (the scalar is carried between the loops), so large
   instances force many partition boundaries — the regime where the
   default pipeline's adjacent sweep and global search separate. *)

let big_name k = Printf.sprintf "big%d" k
let small_name k = Printf.sprintf "s%d" k
let acc_name k = Printf.sprintf "acc%d" k

let generate ~seed ~loops ~n =
  if loops < 1 then
    invalid_arg
      (Printf.sprintf "Dag_family.generate: loops must be >= 1 (got %d)" loops);
  if n < 64 then
    invalid_arg
      (Printf.sprintf "Dag_family.generate: n must be >= 64 (got %d)" n);
  let rng = Random.State.make [| seed; 0xda6; loops |] in
  let m = n / 16 in
  (* pool sizes grow with the instance so sharing stays dense but the
     same arrays keep being revisited by later loops *)
  let bigs = max 3 (loops / 12) in
  let smalls = max 4 (loops / 6) in
  let accs = max 2 (min 4 (loops / 25 + 2)) in
  let open Bw_ir.Builder in
  let decls =
    List.init bigs (fun k -> array ~init:(Init_hash k) (big_name k) [ n ])
    @ List.init smalls (fun k ->
          array ~init:(Init_hash (100 + k)) (small_name k) [ m ])
    @ List.init accs (fun k -> scalar (acc_name k))
  in
  let pick_big () = big_name (Random.State.int rng bigs) in
  let pick_small () = small_name (Random.State.int rng smalls) in
  let pick_acc () = acc_name (Random.State.int rng accs) in
  let elementwise ~extent ~target ~sources =
    let rhs =
      List.fold_left
        (fun acc a -> acc +: (a $ [ v "i" ]))
        (List.hd sources $ [ v "i" ])
        (List.tl sources)
    in
    for_ "i" (int 1) (int extent) [ (target $. [ v "i" ]) <-- rhs ]
  in
  let body =
    List.init loops (fun _ ->
        match Random.State.int rng 100 with
        | r when r < 45 ->
          (* small elementwise chain step *)
          let sources =
            List.init (1 + Random.State.int rng 2) (fun _ -> pick_small ())
          in
          elementwise ~extent:m ~target:(pick_small ()) ~sources
        | r when r < 75 ->
          (* big streamed elementwise step *)
          let sources =
            List.init (1 + Random.State.int rng 2) (fun _ -> pick_big ())
          in
          elementwise ~extent:n ~target:(pick_big ()) ~sources
        | r when r < 90 ->
          (* big reduction onto a shared accumulator *)
          let acc = pick_acc () in
          for_ "i" (int 1) (int n)
            [ sc acc <-- (v acc +: (pick_big () $ [ v "i" ])) ]
        | _ ->
          (* small reduction onto a shared accumulator *)
          let acc = pick_acc () in
          for_ "i" (int 1) (int m)
            [ sc acc <-- (v acc +: (pick_small () $ [ v "i" ])) ])
  in
  let prints = List.init accs (fun k -> print (v (acc_name k))) in
  program
    (Printf.sprintf "dag%dx%d" seed loops)
    ~decls
    ~live_out:(List.init accs acc_name)
    (body @ prints)

let extent ~scale = match scale with 1 -> 65_536 | 2 -> 262_144 | _ -> 1_048_576

let of_name name =
  match Scanf.sscanf_opt name "dag%dx%d%!" (fun seed loops -> (seed, loops)) with
  | Some (seed, loops) when seed >= 0 && loops >= 1 && loops <= 10_000 ->
    Some (fun ~scale -> generate ~seed ~loops ~n:(extent ~scale))
  | _ -> None

let instances ~scale =
  let n = extent ~scale in
  List.map
    (fun (seed, loops) ->
      (Printf.sprintf "dag%dx%d" seed loops, generate ~seed ~loops ~n))
    [ (1, 60); (2, 60); (3, 120); (4, 120); (5, 200) ]
