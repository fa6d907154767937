(* What every workload shares: the clock, benchmark-owned spans, counter
   reads, resident memory, provenance, and the result line. *)

module Json = Bw_core.Json

type args = { workload : string; seed : int; seconds : float; trace : bool }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mean cost of one call of [f] in microseconds, over [reps] calls after
   a first one whose result is returned: single calls of the cheaper
   probes are below the wall clock's microsecond resolution. *)
let per_call_us ?(reps = 20) f =
  let r = f () in
  let _, dt =
    timed (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  (r, dt *. 1e6 /. float_of_int reps)

(* Spans the benchmark opens around calls into a layer carry this
   category; the library's own spans (guard stages, the search's
   internal span, ...) are recorded alongside when tracing is on but are
   left out of the layer accounting. *)
let span_cat = "perfbench"

let span name f = Bw_obs.Trace.with_span ~cat:span_cat name f

(* Self time (microseconds) and span count per benchmark span name, over
   the spans recorded since the last call; the trace buffers are emptied
   so a long traced run holds one pass of spans at a time. *)
let drain_self_times () =
  let spans =
    List.filter_map
      (fun (s : Bw_obs.Trace.span) ->
        if s.cat = span_cat then
          Some
            { Stats.name = s.name; tid = s.tid; start = s.start_us; dur = s.dur_us }
        else None)
      (Bw_obs.Trace.collect ())
  in
  Bw_obs.Trace.reset ();
  Stats.self_times spans

let self_us times name =
  match List.assoc_opt name times with Some (t, _) -> t | None -> 0.

let counter name = Bw_obs.Metrics.counter_value (Bw_obs.Metrics.counter name)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Resident set (VmRSS) of a process now, in MB. *)
let rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
          Scanf.sscanf line "VmRSS: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmRSS in " ^ path)
      in
      scan ())

let shuffle rng items =
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- results ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : float array }

(* A metric reported as the median of its samples. *)
let of_samples name unit_ samples =
  { name; unit_; value = Stats.median samples; samples }

let single name unit_ value = { name; unit_; value; samples = [| value |] }

type outcome = { attempted : int; failed : int; metrics : metric list }

(* --- provenance ------------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let cpuinfo_field lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    lines

(* The commit the tree came from, read from .git without running git;
   "unknown" in an exported tree. *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [ head ] when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_lines (Filename.concat ".git" ref_) with
    | [ sha ] -> sha
    | _ -> (
      let packed = read_lines ".git/packed-refs" in
      match
        List.find_opt
          (fun l ->
            let n = String.length l and r = String.length ref_ in
            n > r && String.sub l (n - r) r = ref_)
          packed
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | [ sha ] -> sha
  | _ -> "unknown"

let provenance args =
  let cpuinfo = read_lines "/proc/cpuinfo" in
  let processors =
    List.length
      (List.filter (fun l -> cpuinfo_field [ l ] "processor" <> None) cpuinfo)
  in
  Json.Obj
    ([ ("workload", Json.String args.workload);
       ("seed", Json.Int args.seed);
       ("seconds", Json.Float args.seconds);
       ("trace", Json.Bool args.trace);
       ("ocaml", Json.String Sys.ocaml_version);
       ("nproc", Json.Int processors);
       ("domains", Json.Int (Domain.recommended_domain_count ()));
       ( "cpu",
         Json.String
           (Option.value ~default:"unknown" (cpuinfo_field cpuinfo "model name")) );
       ("commit", Json.String (git_commit ())) ])

let summary m =
  let q1, q2, q3 = Stats.quartiles m.samples in
  Json.Obj
    [ ("unit", Json.String m.unit_);
      ("n", Json.Int (Array.length m.samples));
      ("median", Json.Float q2);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3) ]

(* Two lines on stdout: provenance with every metric's sample count,
   median and quartiles, then the result line the driver reads. *)
let emit args o =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name))
    o.metrics;
  let detail =
    Json.Obj
      [ ("provenance", provenance args);
        ("samples", Json.Obj (List.map (fun m -> (m.name, summary m)) o.metrics)) ]
  in
  print_endline (Json.to_string detail);
  let result =
    Json.Obj
      [ ("correct", Json.Bool (o.failed = 0));
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                 ))
               o.metrics) ) ]
  in
  print_endline (Json.to_string result)

(* Set-up is timed several times at the start of a run, keeping the
   last result, and as many times again later in the run (serve at its
   end, compile between its passes); setup_s is the median of all of
   them, so neither one slow start nor the host's state at one moment
   reads as a regression.  [discard] releases the results not kept. *)
let timed_setup setup =
  (* from a collected heap, as in a fresh process: the garbage a run
     leaves made set-up times spread by 28% over five seeds *)
  Gc.full_major ();
  timed setup

let time_setups ?(discard = ignore) ~times setup =
  Array.init times (fun _ ->
      let r, dt = timed_setup setup in
      discard r;
      dt)

let first_setups ?discard ~times setup =
  let walls = time_setups ?discard ~times:(times - 1) setup in
  let r, dt = timed_setup setup in
  (r, Array.append walls [| dt |])

let setup_metric ?discard ~times ~first setup =
  of_samples "setup_s" "s" (Array.append first (time_setups ?discard ~times setup))

(* The host's CPU speed drops by up to 1.9x for seconds at a time.  Op
   figures therefore take, for each op, its fastest time over the run's
   passes: [op_walls.(pass)] lists one pass's op times in the same op
   order every pass. *)
let fastest_per_op op_walls =
  let per_op = List.map Array.of_list (Array.to_list op_walls) in
  match per_op with
  | [] -> invalid_arg "fastest_per_op: no passes"
  | first :: rest ->
    let best = Array.copy first in
    List.iter (Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t)) rest;
    best

(* A fixed number of passes, about [seconds] long at [pass_s] seconds
   per pass on the host the benchmark was tuned on: the count must not
   depend on how fast the host ran this time, or the fastest-per-op
   figure would drift with it. *)
let fixed_passes ~seconds ~pass_s pass =
  let n = max 1 (int_of_float (Float.round (seconds /. pass_s))) in
  List.init n (fun _ -> pass ())
