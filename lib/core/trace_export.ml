let json_of_value : Bw_obs.Trace.value -> Json.t = function
  | Bw_obs.Trace.Int n -> Json.Int n
  | Bw_obs.Trace.Float f -> Json.Float f
  | Bw_obs.Trace.Str s -> Json.String s
  | Bw_obs.Trace.Bool b -> Json.Bool b

let json_of_span (s : Bw_obs.Trace.span) =
  Json.Obj
    [ ("name", Json.String s.Bw_obs.Trace.name);
      ("cat", Json.String
          (if s.Bw_obs.Trace.cat = "" then "span" else s.Bw_obs.Trace.cat));
      ("ph", Json.String "X");
      ("ts", Json.Float s.Bw_obs.Trace.start_us);
      ("dur", Json.Float s.Bw_obs.Trace.dur_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int s.Bw_obs.Trace.tid);
      ( "args",
        Json.Obj
          (("depth", Json.Int s.Bw_obs.Trace.depth)
          :: List.map
               (fun (k, v) -> (k, json_of_value v))
               s.Bw_obs.Trace.attrs) ) ]

let json_of_spans spans =
  Json.Obj
    [ ("traceEvents", Json.List (List.map json_of_span spans));
      ("displayTimeUnit", Json.String "ms") ]

let pp_span_tree ppf spans =
  (* group by recording domain, then rely on start order + depth *)
  let tids =
    List.map (fun s -> s.Bw_obs.Trace.tid) spans |> List.sort_uniq compare
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i tid ->
      if i > 0 then Format.fprintf ppf "@,";
      if List.length tids > 1 then Format.fprintf ppf "domain %d:@," tid;
      List.iter
        (fun (s : Bw_obs.Trace.span) ->
          if s.Bw_obs.Trace.tid = tid then begin
            Format.fprintf ppf "%s%-*s %8.3f ms"
              (String.make (2 * s.Bw_obs.Trace.depth) ' ')
              (max 1 (36 - (2 * s.Bw_obs.Trace.depth)))
              s.Bw_obs.Trace.name
              (s.Bw_obs.Trace.dur_us /. 1e3);
            List.iter
              (fun (k, v) ->
                let txt =
                  match v with
                  | Bw_obs.Trace.Int n -> string_of_int n
                  | Bw_obs.Trace.Float f -> Printf.sprintf "%.4g" f
                  | Bw_obs.Trace.Str s -> s
                  | Bw_obs.Trace.Bool b -> string_of_bool b
                in
                Format.fprintf ppf "  %s=%s" k txt)
              s.Bw_obs.Trace.attrs;
            Format.fprintf ppf "@,"
          end)
        spans)
    tids;
  Format.fprintf ppf "@]"

let write_file path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
