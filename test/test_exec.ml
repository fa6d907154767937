open Bw_exec
module Parse = Bw_lang.Parse

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let float_value = function
  | Interp.V_float x -> x
  | Interp.V_int _ -> Alcotest.fail "expected a float value"

(* --- basic semantics ------------------------------------------------------- *)

let test_sum_loop () =
  let p =
    Parse.parse_program_exn
      {|
      program sum10
        real a[10] = linear(1.0, 1.0)
        real sum
        live_out sum
        for i = 1, 10
          sum = sum + a[i]
        end for
        print sum
      end
      |}
  in
  let obs = Interp.run p in
  (* a[i] = 1 + (i-1): 1..10 summed = 55 *)
  match obs.Interp.prints with
  | [ v ] -> check (Alcotest.float 1e-12) "sum" 55.0 (float_value v)
  | _ -> Alcotest.fail "expected one print"

let test_two_dim_column_major () =
  (* a[i,j] with dims [2;3]: flattened offset (i-1) + (j-1)*2. *)
  let p =
    Parse.parse_program_exn
      {|
      program colmajor
        real a[2,3] = linear(0.0, 1.0)
        real x
        x = a[2,3]
        print x
      end
      |}
  in
  let obs = Interp.run p in
  match obs.Interp.prints with
  | [ v ] -> check (Alcotest.float 1e-12) "a[2,3] = offset 5" 5.0 (float_value v)
  | _ -> Alcotest.fail "expected one print"

let test_if_and_bounds () =
  let p =
    Parse.parse_program_exn
      {|
      program branches
        real x
        for i = 1, 4
          if (i <= 2)
            x = x + 1.0
          else
            x = x + 10.0
          end if
        end for
        print x
      end
      |}
  in
  let obs = Interp.run p in
  match obs.Interp.prints with
  | [ v ] -> check (Alcotest.float 1e-12) "2*1 + 2*10" 22.0 (float_value v)
  | _ -> Alcotest.fail "expected one print"

let test_stepped_loop () =
  let p =
    Parse.parse_program_exn
      {|
      program stepped
        integer k
        for i = 1, 10, 3
          k = k + 1
        end for
        print k
      end
      |}
  in
  let obs = Interp.run p in
  match obs.Interp.prints with
  | [ Interp.V_int n ] -> check int "iterations 1,4,7,10" 4 n
  | _ -> Alcotest.fail "expected one int print"

let test_out_of_bounds () =
  let p =
    Parse.parse_program_exn
      {|
      program oob
        real a[4]
        real x
        x = a[5]
      end
      |}
  in
  match Interp.run p with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a bounds error"

let test_zero_subscript_rejected () =
  let p =
    Parse.parse_program_exn
      {|
      program oob0
        real a[4]
        real x
        x = a[0]
      end
      |}
  in
  match Interp.run p with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a bounds error (1-based subscripts)"

(* Both engines raise one exception with one message, which prints as
   one line naming no engine. *)
let test_engines_raise_one_error () =
  let p =
    Parse.parse_program_exn
      {|
      program div0
        real a[4]
        live_out a
        for i = 1, 4
          a[i] = float(8 / 0)
        end for
      end
      |}
  in
  let error run =
    match run p with
    | exception e -> Printexc.to_string e
    | _ -> Alcotest.fail "expected a division by zero"
  in
  let message = "runtime error: integer division by zero" in
  check Alcotest.string "interpreted" message (error (fun p -> Interp.run p));
  check Alcotest.string "compiled" message (error (fun p -> Compile.run p));
  match Compile.run p with
  | exception Interp.Runtime_error m ->
    check Alcotest.string "the compiled engine's exception"
      "integer division by zero" m
  | _ -> Alcotest.fail "expected Interp.Runtime_error"

let test_read_input_deterministic () =
  let src =
    {|
    program inputs
      real a[4]
      live_out a
      for i = 1, 4
        read(a[i])
      end for
    end
    |}
  in
  let obs1 = Interp.run (Parse.parse_program_exn src) in
  let obs2 = Interp.run (Parse.parse_program_exn src) in
  check bool "reproducible inputs" true (Interp.equal_observation obs1 obs2)

(* input_offset shifts the deterministic read() stream: offset 0 is the
   default stream, a nonzero offset yields different (still
   deterministic) inputs, and both engines agree at any offset. *)
let test_input_offset_shifts_stream () =
  let src =
    {|
    program inputs
      real a[4]
      live_out a
      for i = 1, 4
        read(a[i])
      end for
    end
    |}
  in
  let p = Parse.parse_program_exn src in
  let o_default = Interp.run p in
  check bool "offset 0 is the default stream" true
    (Interp.equal_observation o_default (Interp.run ~input_offset:0 p));
  let o_shifted = Interp.run ~input_offset:7919 p in
  check bool "nonzero offset changes the inputs" false
    (Interp.equal_observation o_default o_shifted);
  check bool "compiled engine agrees at the offset" true
    (Interp.equal_observation o_shifted (Compile.run ~input_offset:7919 p))

let test_intrinsic_deterministic () =
  let src =
    {|
    program calls
      real x
      x = f(1.5, 2.5)
      print x
      print g(x)
    end
    |}
  in
  let o1 = Interp.run (Parse.parse_program_exn src) in
  let o2 = Interp.run (Parse.parse_program_exn src) in
  check bool "deterministic" true (Interp.equal_observation o1 o2);
  (* f and g differ *)
  match o1.Interp.prints with
  | [ a; b ] -> check bool "distinct intrinsics" true (float_value a <> float_value b)
  | _ -> Alcotest.fail "expected two prints"

let test_live_out_snapshot () =
  let p =
    Parse.parse_program_exn
      {|
      program snap
        real a[3] = zero
        live_out a
        for i = 1, 3
          a[i] = float(i) * 2.0
        end for
      end
      |}
  in
  let obs = Interp.run p in
  match Lazy.force obs.Interp.finals with
  | [ ("a", values) ] ->
    check int "length" 3 (Array.length values);
    check (Alcotest.float 1e-12) "a[2]" 4.0 (float_value values.(1))
  | _ -> Alcotest.fail "expected one live-out array"

(* --- event counting --------------------------------------------------------- *)

let counted_run src =
  let p = Parse.parse_program_exn src in
  Run.observe p

let test_counts_simple_update () =
  (* for i=1..100: a[i] = a[i] + 0.4 -- 1 load, 1 store, 1 flop per iter *)
  let _, c =
    counted_run
      {|
      program upd
        real a[100]
        live_out a
        for i = 1, 100
          a[i] = a[i] + 0.4
        end for
      end
      |}
  in
  check int "loads" 100 c.Bw_machine.Counters.loads;
  check int "stores" 100 c.Bw_machine.Counters.stores;
  check int "flops" 100 c.Bw_machine.Counters.flops

let test_counts_scalars_free () =
  (* scalar-only arithmetic generates no loads/stores *)
  let _, c =
    counted_run
      {|
      program scal
        real x
        for i = 1, 50
          x = x + 1.0
        end for
      end
      |}
  in
  check int "no loads" 0 c.Bw_machine.Counters.loads;
  check int "no stores" 0 c.Bw_machine.Counters.stores;
  check int "flops" 50 c.Bw_machine.Counters.flops

let test_counts_dot_product () =
  let _, c =
    counted_run
      {|
      program dot
        real a[64]
        real b[64]
        real s
        live_out s
        for i = 1, 64
          s = s + a[i] * b[i]
        end for
      end
      |}
  in
  check int "loads" 128 c.Bw_machine.Counters.loads;
  check int "flops = mul + add" 128 c.Bw_machine.Counters.flops

(* --- simulation on machine models --------------------------------------------- *)

let section21_write_loop n =
  Parse.parse_program_exn
    (Printf.sprintf
       {|
       program write_loop
         real a[%d]
         live_out a
         for i = 1, %d
           a[i] = a[i] + 0.4
         end for
       end
       |}
       n n)

let section21_read_loop n =
  Parse.parse_program_exn
    (Printf.sprintf
       {|
       program read_loop
         real a[%d]
         real sum
         live_out sum
         for i = 1, %d
           sum = sum + a[i]
         end for
       end
       |}
       n n)

(* The paper's Section 2.1 example: the read+write loop takes ~2x the
   read-only loop, because it moves twice the memory traffic. *)
let test_section21_ratio () =
  let n = 500_000 in
  let machine = Bw_machine.Machine.origin2000 in
  let w = Run.simulate ~machine (section21_write_loop n) in
  let r = Run.simulate ~machine (section21_read_loop n) in
  let ratio = Run.seconds w /. Run.seconds r in
  check bool
    (Printf.sprintf "write/read ratio %.2f in [1.7, 2.3]" ratio)
    true
    (ratio > 1.7 && ratio < 2.3);
  check Alcotest.string "both memory bound" "Mem-L2"
    w.Run.breakdown.Bw_machine.Timing.binding_resource

let test_program_balance_streaming () =
  (* Streaming read of one array: memory balance = 8 bytes per flop. *)
  let machine = Bw_machine.Machine.origin2000 in
  let r = Run.simulate ~machine (section21_read_loop 500_000) in
  match Run.program_balance r with
  | [ ("L1-Reg", reg); ("L2-L1", l2); ("Mem-L2", mem) ] ->
    check (Alcotest.float 0.1) "register balance" 8.0 reg;
    check bool "L2 balance near 8" true (l2 > 7.0 && l2 < 9.0);
    check bool "memory balance near 8" true (mem > 7.0 && mem < 9.0)
  | _ -> Alcotest.fail "expected three boundaries"

let test_effective_bandwidth_saturates () =
  let machine = Bw_machine.Machine.origin2000 in
  let r = Run.simulate ~machine (section21_read_loop 500_000) in
  let bw = Run.effective_bandwidth r in
  check bool "near 312 MB/s" true (bw > 250e6 && bw < 320e6)

let test_observation_matches_across_machines () =
  (* Machine model must not affect semantics. *)
  let p = section21_write_loop 10_000 in
  let o1 = (Run.simulate ~machine:Bw_machine.Machine.origin2000 p).Run.observation in
  let o2 = (Run.simulate ~machine:Bw_machine.Machine.exemplar p).Run.observation in
  check bool "same observation" true (Interp.equal_observation o1 o2)

let test_small_array_stays_in_cache () =
  (* Repeatedly sweeping a 1000-element array: after the first sweep it
     lives in L1+L2, so memory traffic stays near one array's worth. *)
  let p =
    Parse.parse_program_exn
      {|
      program resident
        real a[1000]
        real s
        live_out s
        for r = 1, 100
          for i = 1, 1000
            s = s + a[i]
          end for
        end for
      end
      |}
  in
  let r = Run.simulate ~machine:Bw_machine.Machine.origin2000 p in
  let mem_bytes = Bw_machine.Timing.memory_bytes r.Run.cache in
  check bool
    (Printf.sprintf "memory traffic %d < 3 array sizes" mem_bytes)
    true
    (mem_bytes < 3 * 8000)

(* --- QCheck ------------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"sum of linear array matches closed form" ~count:30
      (int_range 1 200) (fun n ->
        let p = section21_read_loop n in
        let obs, _ = Run.observe p in
        match Lazy.force obs.Interp.finals with
        | [ ("sum", [| Interp.V_float s |]) ] ->
          (* init linear(1.0, 0.001): sum = n + 0.001 * (0+..+n-1) *)
          let expected =
            float_of_int n +. (0.001 *. float_of_int (n * (n - 1) / 2))
          in
          Float.abs (s -. expected) < 1e-6
        | _ -> false);
    Test.make ~name:"loads scale linearly with trip count" ~count:30
      (int_range 1 100) (fun n ->
        let _, c = Run.observe (section21_write_loop n) in
        c.Bw_machine.Counters.loads = n && c.Bw_machine.Counters.stores = n);
    (* Differential property over the two engines: on any generated
       program (and any read() stream offset) the tree-walking
       interpreter and the closure-compiling engine must produce equal
       observations — the oracle the optimizer guard's validation
       stands on. *)
    Test.make ~name:"interpreter and compiled engine agree" ~count:25
      (pair (int_range 0 10_000) (int_range 0 3))
      (fun (seed, offset_k) ->
        let p =
          Bw_workloads.Random_programs.generate ~seed ~loops:4 ~arrays:3 ~n:48
        in
        let input_offset = offset_k * 7919 in
        Interp.equal_observation
          (Interp.run ~input_offset p)
          (Compile.run ~input_offset p)) ]

let suites =
  [ ( "exec.semantics",
      [ Alcotest.test_case "sum loop" `Quick test_sum_loop;
        Alcotest.test_case "column-major layout" `Quick test_two_dim_column_major;
        Alcotest.test_case "if/else" `Quick test_if_and_bounds;
        Alcotest.test_case "stepped loop" `Quick test_stepped_loop;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "zero subscript" `Quick test_zero_subscript_rejected;
        Alcotest.test_case "engines raise one runtime error" `Quick
          test_engines_raise_one_error;
        Alcotest.test_case "read() deterministic" `Quick test_read_input_deterministic;
        Alcotest.test_case "input_offset shifts stream" `Quick test_input_offset_shifts_stream;
        Alcotest.test_case "intrinsics deterministic" `Quick test_intrinsic_deterministic;
        Alcotest.test_case "live-out snapshot" `Quick test_live_out_snapshot ] );
    ( "exec.counters",
      [ Alcotest.test_case "simple update" `Quick test_counts_simple_update;
        Alcotest.test_case "scalars are free" `Quick test_counts_scalars_free;
        Alcotest.test_case "dot product" `Quick test_counts_dot_product ] );
    ( "exec.simulation",
      [ Alcotest.test_case "section 2.1 ratio" `Quick test_section21_ratio;
        Alcotest.test_case "streaming balance" `Quick test_program_balance_streaming;
        Alcotest.test_case "bandwidth saturation" `Quick test_effective_bandwidth_saturates;
        Alcotest.test_case "machine-independent semantics" `Quick test_observation_matches_across_machines;
        Alcotest.test_case "cache-resident array" `Quick test_small_array_stays_in_cache ] );
    ("exec.properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases)
  ]
