(* Plain-text metrics exposition in the Prometheus line format:
   metric names with '.' mapped to '_', one "name value" line per
   counter/gauge, and histograms flattened to _count/_sum plus
   cumulative _bucket{le="..."} lines, then the GC gauges. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let render () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Bw_obs.Metrics.snapshot) ->
      let name = sanitize s.Bw_obs.Metrics.metric in
      match s.Bw_obs.Metrics.data with
      | Bw_obs.Metrics.Counter_v v ->
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | Bw_obs.Metrics.Gauge_v v ->
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (float_repr v))
      | Bw_obs.Metrics.Hist_v h ->
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" name h.Bw_obs.Metrics.count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" name
             (float_repr h.Bw_obs.Metrics.sum));
        let cum = ref 0 in
        List.iter
          (fun (ub, n) ->
            cum := !cum + n;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                 (float_repr ub) !cum))
          h.Bw_obs.Metrics.buckets)
    (Bw_obs.Metrics.snapshot ());
  (* the garbage collector's figures, read at scrape time: words
     allocated and collections run since start, and the major heap's
     size now *)
  let gc = Gc.quick_stat () in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (float_repr v)))
    [ ("gc_minor_words", gc.Gc.minor_words);
      ("gc_major_words", gc.Gc.major_words);
      ("gc_minor_collections", float_of_int gc.Gc.minor_collections);
      ("gc_major_collections", float_of_int gc.Gc.major_collections);
      ("gc_heap_words", float_of_int gc.Gc.heap_words) ];
  Buffer.contents buf
