(* Differential testing of the two execution engines: the tree-walking
   interpreter and the closure compiler must produce bit-identical
   observations AND identical event streams (counters) on everything. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let counters_of run p =
  let c = Bw_machine.Counters.create () in
  let sink =
    Bw_exec.Interp.make_sink
      ~on_trace:(fun (buf : Bw_machine.Trace_buffer.t) ->
        for r = 0 to buf.len - 1 do
          let kind = buf.data.(r * Bw_machine.Trace_buffer.slot_width) in
          if kind = Bw_machine.Trace_buffer.kind_load then
            c.Bw_machine.Counters.loads <- c.Bw_machine.Counters.loads + 1
          else
            c.Bw_machine.Counters.stores <- c.Bw_machine.Counters.stores + 1
        done)
      ()
  in
  let obs = run ~sink p in
  Bw_exec.Interp.flush_sink sink;
  c.Bw_machine.Counters.flops <- sink.Bw_exec.Interp.flops;
  c.Bw_machine.Counters.int_ops <- sink.Bw_exec.Interp.int_ops;
  (obs, c)

let differential name p =
  let o1, c1 = counters_of (fun ~sink p -> Bw_exec.Interp.run ~sink p) p in
  let o2, c2 = counters_of (fun ~sink p -> Bw_exec.Compile.run ~sink p) p in
  if not (Bw_exec.Interp.equal_observation o1 o2) then
    Alcotest.failf "%s: engines disagree on observations" name;
  check int (name ^ " flops") c1.Bw_machine.Counters.flops
    c2.Bw_machine.Counters.flops;
  check int (name ^ " loads") c1.Bw_machine.Counters.loads
    c2.Bw_machine.Counters.loads;
  check int (name ^ " stores") c1.Bw_machine.Counters.stores
    c2.Bw_machine.Counters.stores

let test_engines_agree_on_registry () =
  List.iter
    (fun (e : Bw_workloads.Registry.entry) ->
      differential e.Bw_workloads.Registry.name
        (e.Bw_workloads.Registry.build ~scale:1))
    Bw_workloads.Registry.all

let test_engines_agree_on_random_programs () =
  for seed = 1 to 15 do
    differential
      (Printf.sprintf "random %d" seed)
      (Bw_workloads.Random_programs.generate ~seed ~loops:5 ~arrays:4 ~n:64)
  done

let test_engines_agree_on_transformed_programs () =
  let p = Bw_workloads.Fig6.fused ~n:24 in
  let p', _ = Bw_transform.Strategy.run p in
  differential "fig6 optimised" p';
  let q = Bw_workloads.Fig7.original ~n:500 in
  let q', _ = Bw_transform.Strategy.run q in
  differential "fig7 optimised" q'

let test_compile_bounds_check () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program oob
        real a[4]
        real x
        x = a[5]
      end
      |}
  in
  match Bw_exec.Compile.run p with
  | exception Bw_exec.Compile.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a bounds error"

let test_compile_is_faster () =
  (* not a strict benchmark, but the compiler should clearly win on a
     sizeable loop; allow generous slack for machine noise *)
  let p = Bw_workloads.Simple_example.read_loop ~n:400_000 in
  let time f =
    let t0 = Sys.time () in
    ignore (f p);
    Sys.time () -. t0
  in
  ignore (time Bw_exec.Compile.run);
  let interp = time Bw_exec.Interp.run in
  let compiled = time Bw_exec.Compile.run in
  check bool
    (Printf.sprintf "compiled %.3fs < interp %.3fs" compiled interp)
    true
    (compiled < interp)

let suites =
  [ ( "exec.compile",
      [ Alcotest.test_case "registry differential" `Slow test_engines_agree_on_registry;
        Alcotest.test_case "random differential" `Quick test_engines_agree_on_random_programs;
        Alcotest.test_case "transformed differential" `Quick test_engines_agree_on_transformed_programs;
        Alcotest.test_case "bounds checked" `Quick test_compile_bounds_check;
        Alcotest.test_case "faster than the interpreter" `Slow test_compile_is_faster ] )
  ]
