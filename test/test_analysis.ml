open Bw_ir
open Bw_analysis
module Parse = Bw_lang.Parse

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Affine -------------------------------------------------------------- *)

(* [s] is parsed as the right-hand side of [x = s] in a program that
   declares i and j *)
let affine_of s =
  let src =
    Printf.sprintf
      "program e\n  integer i\n  integer j\n  integer x\nx = %s\nend" s
  in
  match Parse.parse_program src with
  | Ok { Ast.body = [ Ast.Assign (_, e) ]; _ } -> Affine.of_expr e
  | _ -> Alcotest.failf "cannot parse %s" s

let test_affine_extraction () =
  (match affine_of "2*i + j - 3" with
  | Some f ->
    check int "coeff i" 2 (Affine.coeff f "i");
    check int "coeff j" 1 (Affine.coeff f "j");
    check int "const" (-3) f.Affine.const
  | None -> Alcotest.fail "expected affine");
  check bool "i*j rejected" true (affine_of "i*j" = None);
  check bool "i/2 rejected" true (affine_of "i/2" = None);
  (match affine_of "4*(i - 1) + 2" with
  | Some f ->
    check int "distributed coeff" 4 (Affine.coeff f "i");
    check int "distributed const" (-2) f.Affine.const
  | None -> Alcotest.fail "expected affine")

let test_affine_roundtrip () =
  match affine_of "3*i + 2" with
  | Some f -> (
    match Affine.of_expr (Affine.to_expr f) with
    | Some f' -> check bool "roundtrip" true (Affine.equal f f')
    | None -> Alcotest.fail "to_expr not affine")
  | None -> Alcotest.fail "expected affine"

let test_affine_arith () =
  let a = Option.get (affine_of "i + 1") in
  let b = Option.get (affine_of "i - 1") in
  let d = Affine.sub a b in
  check bool "i cancels" true (Affine.is_const d);
  check int "difference" 2 d.Affine.const;
  check int "eval" 11 (Affine.eval a (fun _ -> 10))

(* --- Refs ----------------------------------------------------------------- *)

let test_refs_collect () =
  let p =
    Parse.parse_program_exn
      {|
      program refs
        real a[10,10]
        real b[10]
        live_out b
        for j = 1, 10
          for i = 1, 10
            b[i] = b[i] + a[i,j]
          end for
        end for
      end
      |}
  in
  let refs = Refs.collect p.Ast.body in
  check int "three array refs" 3 (List.length refs);
  let writes = Refs.writes refs in
  check int "one write" 1 (List.length writes);
  let w = List.hd writes in
  check Alcotest.string "write target" "b" w.Refs.array;
  check int "two enclosing loops" 2 (List.length w.Refs.loops)

let test_refs_subscript_wrt () =
  let p =
    Parse.parse_program_exn
      {|
      program s
        real a[10,10]
        real x
        for j = 2, 10
          x = a[3, j-1]
        end for
      end
      |}
  in
  let refs = Refs.collect p.Ast.body in
  match Refs.of_array "a" refs with
  | [ r ] -> (
    match Refs.subscript_wrt r ~index:"j" with
    | Some (dim, f) ->
      check int "dim 1" 1 dim;
      check int "offset -1" (-1) f.Affine.const
    | None -> Alcotest.fail "expected j in dim 1")
  | _ -> Alcotest.fail "expected one ref"

(* --- Depend --------------------------------------------------------------- *)

let loop_of src =
  let p = Parse.parse_program_exn src in
  match p.Ast.body with
  | [ Ast.For l ] -> l
  | _ -> Alcotest.fail "expected a single loop"

let mk_pair body1 body2 =
  ( loop_of
      (Printf.sprintf
         "program p1\n real a[100]\n real b[100]\n real c[100]\n live_out a, b, c\n for i = 2, 99\n %s\n end for\nend"
         body1),
    loop_of
      (Printf.sprintf
         "program p2\n real a[100]\n real b[100]\n real c[100]\n live_out a, b, c\n for i = 2, 99\n %s\n end for\nend"
         body2) )

let test_fusable_cases () =
  let expect_ok b1 b2 =
    let l1, l2 = mk_pair b1 b2 in
    match Depend.fusable l1 l2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s | %s: %s" b1 b2 e
  in
  let expect_reject b1 b2 =
    let l1, l2 = mk_pair b1 b2 in
    match Depend.fusable l1 l2 with
    | Ok () -> Alcotest.failf "%s | %s: expected rejection" b1 b2
    | Error _ -> ()
  in
  expect_ok "a[i] = a[i] + 1.0" "b[i] = a[i]";
  expect_ok "a[i] = a[i] + 1.0" "b[i] = a[i-1]";
  expect_reject "a[i] = a[i] + 1.0" "b[i] = a[i+1]";
  (* anti-dependence: reading ahead of a later loop's write is safe after
     fusion (the write lands in a strictly later iteration), but reading
     behind it is not (the fused write clobbers the value early) *)
  expect_ok "b[i] = a[i+1]" "a[i] = b[i] * 2.0";
  expect_reject "b[i] = a[i-1]" "a[i] = b[i] * 2.0";
  (* disjoint arrays always fuse *)
  expect_ok "a[i] = a[i] + 1.0" "c[i] = c[i] * 2.0";
  (* same-element output dependence is fine *)
  expect_ok "a[i] = 1.0" "a[i] = a[i] + 2.0"

let test_constant_bounds_edges () =
  let open Bw_ir.Builder in
  let mk ?step lo hi = { Ast.index = "i"; lo; hi;
                         step = Option.value step ~default:(int 1);
                         body = [] } in
  check bool "negative step" true
    (Depend.constant_bounds (mk ~step:(int (-1)) (int 10) (int 1))
    = Some (10, 1, -1));
  check bool "non-unit step" true
    (Depend.constant_bounds (mk ~step:(int 3) (int 1) (int 20))
    = Some (1, 20, 3));
  check bool "symbolic bound" true
    (Depend.constant_bounds (mk (int 1) (v "n")) = None);
  check bool "symbolic step" true
    (Depend.constant_bounds (mk ~step:(v "s") (int 1) (int 9)) = None)

let test_pair_test_mismatched_coeffs () =
  let pair body =
    let l =
      loop_of
        (Printf.sprintf
           "program p\n real a[400]\n live_out a\n for i = 1, 99\n %s\n end for\nend"
           body)
    in
    match Depend.loop_pairs l with
    | [ pi ] -> pi.Depend.answer
    | ps -> Alcotest.failf "expected one pair, got %d" (List.length ps)
  in
  (* gcd(2,3) = 1 divides everything: can't rule the pair out *)
  check bool "2i vs 3i unknown" true (pair "a[2*i] = a[3*i]" = Depend.Unknown);
  (* gcd(2,4) = 2 does not divide 1: provably disjoint *)
  check bool "2i vs 4i+1 independent" true
    (pair "a[2*i] = a[4*i+1]" = Depend.Independent);
  (* same parity: solutions exist somewhere *)
  check bool "2i vs 4i+2 unknown" true
    (pair "a[2*i] = a[4*i+2]" = Depend.Unknown);
  (* equal coefficients, non-multiple offset: disjoint lattices *)
  check bool "2i vs 2i+1 independent" true
    (pair "a[2*i] = a[2*i+1]" = Depend.Independent)

let test_pair_test_symmetry () =
  (* swapping the refs negates the distance *)
  let l =
    loop_of
      "program p\n real a[100]\n live_out a\n for i = 2, 99\n a[i] = a[i-1]\n end for\nend"
  in
  let refs = Refs.collect l.Ast.body in
  let w = List.hd (Refs.writes refs) and r = List.hd (Refs.reads refs) in
  (match
     (Depend.pair_test ~index:"i" w r, Depend.pair_test ~index:"i" r w)
   with
  | Depend.Dependent (Some d1), Depend.Dependent (Some d2) ->
    check int "negated" d1 (-d2);
    check int "value" 1 (abs d1)
  | a, b ->
    Alcotest.failf "expected distances, got %a / %a" Depend.pp_answer a
      Depend.pp_answer b);
  (* and an independent pair is independent from both sides *)
  let l2 =
    loop_of
      "program p\n real a[100]\n live_out a\n for i = 1, 49\n a[2*i] = a[2*i+1]\n end for\nend"
  in
  let refs2 = Refs.collect l2.Ast.body in
  let w2 = List.hd (Refs.writes refs2) and r2 = List.hd (Refs.reads refs2) in
  check bool "independent both ways" true
    (Depend.pair_test ~index:"i" w2 r2 = Depend.Independent
    && Depend.pair_test ~index:"i" r2 w2 = Depend.Independent)

let test_fusable_scalar_carried () =
  let mk b =
    loop_of
      (Printf.sprintf
         "program p\n real a[100]\n real b[100]\n real c[100]\n real t\n live_out a, b, c\n for i = 2, 99\n %s\n end for\nend"
         b)
  in
  (* t flows from loop 1 into loop 2 where it is read before any write:
     not private, so fusion must be rejected *)
  let l1 = mk "t = a[i]\n b[i] = t" in
  let l2 = mk "c[i] = t" in
  (match Depend.fusable l1 l2 with
  | Ok () -> Alcotest.fail "carried scalar must block fusion"
  | Error reason -> check bool "names the scalar" true (reason <> ""));
  (* written-before-read in the second loop: private, fusable *)
  let l3 = mk "t = c[i]\n a[i] = t" in
  match Depend.fusable l1 l3 with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "private scalar should fuse: %s" reason

(* The message names the first offending pair in (first loop's
   reference, second loop's reference) order.  Loop 1 writes z before a;
   loop 2 reads a before z, and a sorts first too, so a visit array by
   array — in loop 2's order or by name — would report a instead.  A
   carried scalar is reported first by name: t is written and read
   before s, but s is named. *)
let test_fusable_first_offending_pair () =
  let mk b =
    loop_of
      (Printf.sprintf
         "program p\n real a[100]\n real z[100]\n real u[100]\n real s\n real t\n live_out a, z, u\n for i = 3, 98\n %s\n end for\nend"
         b)
  in
  let verdict l1 l2 =
    match Depend.fusable l1 l2 with Ok () -> "fusable" | Error e -> e
  in
  let message = Alcotest.string in
  check message "first pair in reference order"
    "array 'z': backward dependence (distance -1)"
    (verdict (mk "z[i] = 1.0\n a[i] = 2.0") (mk "u[i] = a[i+2] + z[i+1]"));
  check message "first carried scalar by name" "scalar 's' carried between loops"
    (verdict
       (mk "t = a[i]\n s = z[i]\n u[i] = t + s")
       (mk "a[i] = t\n z[i] = s"))

let test_fusable_read_stream () =
  (* two read() loops both consume the sequential input stream; fusing
     them would interleave their stream positions *)
  let mk b =
    loop_of
      (Printf.sprintf
         "program p\n real a[100]\n real b[100]\n live_out a, b\n for i = 1, 100\n %s\n end for\nend"
         b)
  in
  let reads_a = mk "read(a[i])" and reads_b = mk "read(b[i])" in
  (match Depend.fusable reads_a reads_b with
  | Ok () -> Alcotest.fail "two input-consuming loops must not fuse"
  | Error _ -> ());
  (* one consumer + one pure compute loop is fine *)
  let compute = mk "b[i] = b[i] * 2.0" in
  match Depend.fusable reads_a compute with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "read + compute should fuse: %s" reason

let test_pair_test_multidim () =
  let p =
    Parse.parse_program_exn
      {|
      program md
        real a[10,10]
        live_out a
        for j = 2, 10
          a[3, j] = a[3, j-1] + 1.0
        end for
      end
      |}
  in
  let refs = Refs.collect p.Ast.body in
  let w = List.hd (Refs.writes refs) in
  let r = List.hd (Refs.reads refs) in
  match Depend.pair_test ~index:"j" w r with
  | Depend.Dependent (Some 1) -> ()
  | other -> Alcotest.failf "expected distance 1, got %a" Depend.pp_answer other

let test_gcd_independent () =
  (* a[2i] written, a[2i+1] read: parity separates them *)
  let p =
    Parse.parse_program_exn
      {|
      program par
        real a[40]
        live_out a
        for i = 1, 19
          a[2*i] = a[2*i+1] + 1.0
        end for
      end
      |}
  in
  let refs = Refs.collect p.Ast.body in
  let w = List.hd (Refs.writes refs) in
  let r = List.hd (Refs.reads refs) in
  (match Depend.pair_test ~index:"i" w r with
  | Depend.Independent -> ()
  | other -> Alcotest.failf "expected independent, got %a" Depend.pp_answer other);
  (* and with compatible parity the GCD test cannot rule it out *)
  let p2 =
    Parse.parse_program_exn
      {|
      program par2
        real a[40]
        live_out a
        for i = 1, 19
          a[2*i] = a[4*i] + 1.0
        end for
      end
      |}
  in
  let refs2 = Refs.collect p2.Ast.body in
  let w2 = List.hd (Refs.writes refs2) in
  let r2 = List.hd (Refs.reads refs2) in
  match Depend.pair_test ~index:"i" w2 r2 with
  | Depend.Unknown -> ()
  | other -> Alcotest.failf "expected unknown, got %a" Depend.pp_answer other

let test_gcd_blocks_fusion () =
  (* fusion of even-writer with odd-reader is legal: no overlap at all *)
  let l b =
    loop_of
      (Printf.sprintf
         "program p
 real a[100]
 real b[100]
 live_out a, b
 for i = 1, 40
 %s
 end for
end"
         b)
  in
  let l1 = l "a[2*i] = a[2*i] + 1.0" in
  let l2 = l "b[i] = a[2*i + 1]" in
  match Depend.fusable l1 l2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected fusable via GCD: %s" e

let test_pair_test_independent_rows () =
  let p =
    Parse.parse_program_exn
      {|
      program rows
        real a[10,10]
        live_out a
        for j = 1, 10
          a[3, j] = a[4, j] + 1.0
        end for
      end
      |}
  in
  let refs = Refs.collect p.Ast.body in
  let w = List.hd (Refs.writes refs) in
  let r = List.hd (Refs.reads refs) in
  match Depend.pair_test ~index:"j" w r with
  | Depend.Independent -> ()
  | other -> Alcotest.failf "expected independent, got %a" Depend.pp_answer other

let test_scalar_private () =
  let body src =
    (loop_of
       (Printf.sprintf
          "program p\n real a[50]\n real t\n live_out a\n for i = 1, 50\n %s\n end for\nend"
          src)).Ast.body
  in
  check bool "write then read" true
    (Depend.scalar_private (body "t = a[i]\n a[i] = t * 2.0") "t");
  check bool "read before write" false
    (Depend.scalar_private (body "a[i] = t\n t = a[i]") "t")

let test_conformable () =
  let l1 =
    loop_of "program p\n real a[10]\n live_out a\n for i = 1, 10\n a[i] = 1.0\n end for\nend"
  in
  let l2 =
    loop_of "program p\n real a[10]\n live_out a\n for j = 1, 10\n a[j] = 2.0\n end for\nend"
  in
  let l3 =
    loop_of "program p\n real a[10]\n live_out a\n for k = 2, 10\n a[k] = 3.0\n end for\nend"
  in
  check bool "renamed equal bounds" true (Depend.conformable l1 l2);
  check bool "different lo" false (Depend.conformable l1 l3)

(* --- Live ------------------------------------------------------------------- *)

let test_live_ranges () =
  let p = Bw_workloads.Fig7.original ~n:32 in
  let ranges = Live.analyse p in
  (match Live.range_of ranges "res" with
  | Some r ->
    check int "first" 1 r.Live.first;
    check int "last" 2 r.Live.last;
    check bool "not live out" false r.Live.live_out
  | None -> Alcotest.fail "res has a range");
  check bool "dead after loop 2" true
    (Live.dead_after ranges ~position:2 "res");
  check bool "not dead after loop 1" false
    (Live.dead_after ranges ~position:1 "res")

let test_live_out_flag () =
  let p =
    Parse.parse_program_exn
      {|
      program lo
        real a[10]
        live_out a
        for i = 1, 10
          a[i] = 1.0
        end for
      end
      |}
  in
  match Live.range_of (Live.analyse p) "a" with
  | Some r -> check bool "live out" true r.Live.live_out
  | None -> Alcotest.fail "expected range"

let test_local_to () =
  let p =
    Parse.parse_program_exn
      {|
      program local
        real t[10]
        real s
        live_out s
        for i = 1, 10
          t[i] = 1.0
          s = s + t[i]
        end for
      end
      |}
  in
  check Alcotest.(list string) "t local" [ "t" ] (Live.local_to p ~position:0)

(* --- QCheck ------------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  let gen_affine =
    Gen.(
      map2
        (fun const coeffs ->
          { Affine.const;
            Affine.terms =
              List.filteri (fun i _ -> i < 3) coeffs
              |> List.mapi (fun i c -> (Printf.sprintf "v%d" i, c))
              |> List.filter (fun (_, c) -> c <> 0) })
        small_signed_int
        (small_list small_signed_int))
  in
  let arb_affine = make ~print:(Format.asprintf "%a" Affine.pp) gen_affine in
  [ Test.make ~name:"affine to_expr/of_expr roundtrip" ~count:200 arb_affine
      (fun f ->
        match Affine.of_expr (Affine.to_expr f) with
        | Some f' -> Affine.equal f f'
        | None -> false);
    Test.make ~name:"affine add then sub is identity" ~count:200
      (pair arb_affine arb_affine) (fun (a, b) ->
        Affine.equal a (Affine.sub (Affine.add a b) b));
    Test.make ~name:"eval is linear" ~count:200 (pair arb_affine small_nat)
      (fun (f, x) ->
        let lookup _ = x in
        let direct = Affine.eval f lookup in
        let doubled = Affine.eval (Affine.scale 2 f) lookup in
        doubled = 2 * direct) ]

let suites =
  [ ( "analysis.affine",
      [ Alcotest.test_case "extraction" `Quick test_affine_extraction;
        Alcotest.test_case "roundtrip" `Quick test_affine_roundtrip;
        Alcotest.test_case "arithmetic" `Quick test_affine_arith ] );
    ( "analysis.refs",
      [ Alcotest.test_case "collect" `Quick test_refs_collect;
        Alcotest.test_case "subscript_wrt" `Quick test_refs_subscript_wrt ] );
    ( "analysis.depend",
      [ Alcotest.test_case "fusable cases" `Quick test_fusable_cases;
        Alcotest.test_case "constant bounds edges" `Quick
          test_constant_bounds_edges;
        Alcotest.test_case "mismatched coefficients" `Quick
          test_pair_test_mismatched_coeffs;
        Alcotest.test_case "pair_test symmetry" `Quick test_pair_test_symmetry;
        Alcotest.test_case "carried scalar blocks fusion" `Quick
          test_fusable_scalar_carried;
        Alcotest.test_case "input stream blocks fusion" `Quick
          test_fusable_read_stream;
        Alcotest.test_case "names the first offending pair" `Quick
          test_fusable_first_offending_pair;
        Alcotest.test_case "multidim distance" `Quick test_pair_test_multidim;
        Alcotest.test_case "gcd independence" `Quick test_gcd_independent;
        Alcotest.test_case "gcd enables fusion" `Quick test_gcd_blocks_fusion;
        Alcotest.test_case "independent rows" `Quick test_pair_test_independent_rows;
        Alcotest.test_case "scalar private" `Quick test_scalar_private;
        Alcotest.test_case "conformable" `Quick test_conformable ] );
    ( "analysis.live",
      [ Alcotest.test_case "ranges" `Quick test_live_ranges;
        Alcotest.test_case "live-out flag" `Quick test_live_out_flag;
        Alcotest.test_case "local_to" `Quick test_local_to ] );
    ("analysis.properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases)
  ]
