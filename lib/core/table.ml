type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~title ~header ?(notes = []) rows = { title; header; rows; notes }

let render ppf t =
  let all = t.header :: t.rows in
  let columns =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let print_row row =
    List.iteri
      (fun c w ->
        let cell = Option.value (List.nth_opt row c) ~default:"" in
        if c = 0 then Format.fprintf ppf "%-*s" w cell
        else Format.fprintf ppf "  %*s" w cell)
      widths;
    Format.pp_print_newline ppf ()
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf ppf "== %s ==@." t.title;
  print_row t.header;
  Format.fprintf ppf "%s@." rule;
  List.iter print_row t.rows;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) t.notes

let to_string t = Format.asprintf "%a" render t

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let mb_s x = Printf.sprintf "%.0f MB/s" (x /. 1e6)
let ms x = Printf.sprintf "%.2f ms" (x *. 1e3)
let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
