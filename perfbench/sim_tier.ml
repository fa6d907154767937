(* The exact simulation tier behind `bwc simulate` and serve's analyze
   and simulate misses, timed layer by layer in both traced runs on the
   workload's programs (compile's corpus, serve's hot registry
   programs): capture a program once with the compiled engine, replay
   the capture on Origin2000 and Exemplar, run one reuse-distance pass
   over it, and measure the streaming floor of the replay loop.  Each
   replay's counters must equal a direct simulation on the interpreter,
   which shares neither the engine nor the capture/replay path. *)

open Common
module Run = Bw_exec.Run
module Cache = Bw_machine.Cache
module Store = Bw_machine.Trace_store

let machines = Bw_machine.Machine.[ origin2000; exemplar ]

(* The counters a replay must reproduce: memory lines in and out, then
   read and write misses per cache level. *)
let signature (r : Run.result) =
  Cache.memory_lines_in r.cache :: Cache.memory_lines_out r.cache
  :: List.concat_map
       (fun (s : Cache.level_stats) -> [ s.read_misses; s.write_misses ])
       (Cache.stats_snapshot r.cache)

type pass = {
  refs : int;
  encoded : int;
  failed : int;
  replay_s : float;  (* serial Run.replay on Origin2000 *)
  decode_s : float;  (* Trace_store.iter with a no-op callback *)
  copy_s : float;  (* host Bytes.blit of the encoded size *)
}

(* The streaming floor (Treibig-Hager): the same capture decoded with a
   no-op callback, and a host copy of as many bytes as it occupies. *)
let floor_probes (c : Run.capture) =
  let replay =
    snd
      (timed (fun () ->
           span "machine.replay" (fun () ->
               Run.replay ~machine:Bw_machine.Machine.origin2000 c)))
  in
  let decode =
    snd
      (timed (fun () ->
           span "machine.decode" (fun () -> Store.iter c.store ~f:(fun _ _ _ -> ()))))
  in
  let n = Store.encoded_bytes c.store in
  let src = Bytes.make n 'x' and dst = Bytes.create n in
  let copy =
    Stats.median
      (Array.init 5 (fun _ ->
           snd
             (timed (fun () -> span "machine.copy" (fun () -> Bytes.blit src 0 dst 0 n)))))
  in
  (replay, decode, copy)

let pass programs =
  List.fold_left
    (fun acc (program, expected) ->
      (* each program starts from a collected heap, so the previous
         capture is not collected on this one's clock *)
      Gc.full_major ();
      let c = span "exec.capture" (fun () -> Run.capture ~engine:`Compiled program) in
      let results = span "exec.replay_many" (fun () -> Run.replay_many ~jobs:1 ~machines c) in
      let reuse = span "machine.reuse" (fun () -> Run.reuse_of_capture c) in
      let refs = Store.records c.store in
      let wrong =
        (if List.map signature results = expected then 0 else 1)
        + if Bw_machine.Reuse.total reuse = refs then 0 else 1
      in
      let replay_s, decode_s, copy_s = floor_probes c in
      { refs = acc.refs + refs;
        encoded = acc.encoded + Store.encoded_bytes c.store;
        failed = acc.failed + wrong;
        replay_s = acc.replay_s +. replay_s;
        decode_s = acc.decode_s +. decode_s;
        copy_s = acc.copy_s +. copy_s })
    { refs = 0; encoded = 0; failed = 0; replay_s = 0.; decode_s = 0.; copy_s = 0. }
    programs

let mrefs refs seconds = float_of_int refs /. seconds /. 1e6

(* [passes] traced passes over [programs]; per-layer figures are medians
   over the passes.  Returns the metrics, the ops attempted and the
   failures. *)
let layer_metrics ~passes programs =
  let programs =
    List.map
      (fun p ->
        ( p,
          List.map
            (fun machine -> signature (Run.simulate ~engine:`Interpreted ~machine p))
            machines ))
      programs
  in
  let runs =
    Bw_obs.Trace.with_enabled true (fun () ->
        List.init passes (fun _ ->
            let p = pass programs in
            (p, drain_self_times ())))
  in
  let per_pass f = Array.of_list (List.map f runs) in
  let ms name = per_pass (fun (_, t) -> self_us t name /. 1e3) in
  let rate name = per_pass (fun (p, t) -> float_of_int p.refs /. self_us t name) in
  let replay = per_pass (fun (p, _) -> mrefs p.refs p.replay_s) in
  let copy = per_pass (fun (p, _) -> mrefs p.refs p.copy_s) in
  let metrics =
    [ of_samples "exec.capture_ms" "ms" (ms "exec.capture");
      of_samples "exec.capture_mrefs_per_s" "Mref/s" (rate "exec.capture");
      of_samples "exec.replay_ms" "ms" (ms "exec.replay_many");
      of_samples "machine.replay_mrefs_per_s" "Mref/s" replay;
      of_samples "machine.reuse_ms" "ms" (ms "machine.reuse");
      of_samples "machine.trace_bytes_per_ref" "B"
        (per_pass (fun (p, _) -> float_of_int p.encoded /. float_of_int p.refs));
      of_samples "machine.decode_mrefs_per_s" "Mref/s"
        (per_pass (fun (p, _) -> mrefs p.refs p.decode_s));
      of_samples "machine.copy_mrefs_per_s" "Mref/s" copy;
      of_samples "machine.replay_vs_copy" "ratio" (Array.map2 ( /. ) replay copy) ]
  in
  let failed = List.fold_left (fun n (p, _) -> n + p.failed) 0 runs in
  (metrics, passes * List.length programs, failed)
