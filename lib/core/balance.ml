type row = { per_boundary : (string * float) list }

let of_result r = { per_boundary = Bw_exec.Run.program_balance r }
let of_program ~machine p = of_result (Bw_exec.Run.simulate ~machine p)

let of_machine (m : Bw_machine.Machine.t) =
  { per_boundary =
      List.combine
        (Bw_machine.Machine.boundary_names m)
        (Bw_machine.Machine.balance m) }

let ratios row machine =
  let supply = of_machine machine in
  List.map2
    (fun (name, demand) (name', s) ->
      if name <> name' then
        invalid_arg "Balance.ratios: boundary mismatch"
      else (name, demand /. s))
    row.per_boundary supply.per_boundary

let worst_ratio row machine =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("", neg_infinity) (ratios row machine)

let cpu_utilisation_bound row machine =
  let _, r = worst_ratio row machine in
  if r <= 1.0 then 1.0 else 1.0 /. r
