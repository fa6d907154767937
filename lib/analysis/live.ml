open Bw_ir.Ast

type range = {
  array : string;
  first : int;
  last : int;
  read_positions : int list;
  write_positions : int list;
  live_out : bool;
}

let pp_range ppf r =
  Format.fprintf ppf "%s: [%d,%d]%s" r.array r.first r.last
    (if r.live_out then " live-out" else "")

let stmt_array_accesses stmt =
  let refs = Refs.collect [ stmt ] in
  List.map
    (fun (r : Refs.t) ->
      (r.Refs.array, match r.Refs.access with Refs.Read -> `Read | Refs.Write -> `Write))
    refs

let analyse (p : program) =
  let table : (string, int list ref * int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let is_array name =
    match find_decl p name with Some d -> is_array d | None -> false
  in
  List.iteri
    (fun pos stmt ->
      List.iter
        (fun (name, access) ->
          if is_array name then begin
            let reads, writes =
              match Hashtbl.find_opt table name with
              | Some cell -> cell
              | None ->
                let cell = (ref [], ref []) in
                Hashtbl.add table name cell;
                cell
            in
            match access with
            | `Read -> reads := pos :: !reads
            | `Write -> writes := pos :: !writes
          end)
        (stmt_array_accesses stmt))
    p.body;
  p.decls
  |> List.filter_map (fun d ->
         match Hashtbl.find_opt table d.var_name with
         | None -> None
         | Some (reads, writes) ->
           let read_positions = List.sort_uniq compare !reads in
           let write_positions = List.sort_uniq compare !writes in
           let all = read_positions @ write_positions in
           Some
             { array = d.var_name;
               first = List.fold_left min max_int all;
               last = List.fold_left max min_int all;
               read_positions;
               write_positions;
               live_out = Bw_ir.Ast_util.mem_name d.var_name p.live_out })

let range_of ranges name = List.find_opt (fun r -> r.array = name) ranges

let dead_after ranges ~position name =
  match range_of ranges name with
  | None -> false
  | Some r ->
    (not r.live_out)
    && not (List.exists (fun pos -> pos > position) r.read_positions)

let local_to p ~position =
  analyse p
  |> List.filter (fun r ->
         r.first = position && r.last = position && not r.live_out)
  |> List.map (fun r -> r.array)
