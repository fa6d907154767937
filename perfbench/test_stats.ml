(* Pins the benchmark's percentile, quartile and self-time arithmetic.
   Expected quartiles are what Python's statistics.quantiles(data, n=4)
   returns for the same data. *)

let close_to ?(eps = 1e-9) what expected got =
  if Float.abs (expected -. got) > eps then
    failwith (Printf.sprintf "%s: expected %g, got %g" what expected got)

let check_quartiles data (q1, q2, q3) =
  let g1, g2, g3 = Stats.quartiles data in
  close_to "q1" q1 g1;
  close_to "q2" q2 g2;
  close_to "q3" q3 g3

let () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  check_quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  (* order of the input does not matter *)
  check_quartiles [| 9.; 1.; 5.; 3.; 7. |] (2., 5., 8.);
  (* with two points the outer cuts extrapolate: [1, 2] -> [0.75, 1.5, 2.25] *)
  check_quartiles [| 2.; 1. |] (0.75, 1.5, 2.25);
  (* Python refuses one point; the benchmark reports it as all three *)
  check_quartiles [| 4. |] (4., 4., 4.);
  close_to "median odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  close_to "median even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  close_to "p50" 50. (Stats.percentile hundred 50.);
  close_to "p99" 99. (Stats.percentile hundred 99.);
  close_to "p100" 100. (Stats.percentile hundred 100.);
  close_to "p99 of 10" 10. (Stats.percentile (Array.sub hundred 0 10) 99.);
  close_to "p1" 1. (Stats.percentile hundred 1.)

let span ?(tid = 0) name start dur = { Stats.name; tid; start; dur }

let self_of name spans =
  match List.assoc_opt name (Stats.self_times spans) with
  | Some v -> v
  | None -> failwith ("no self time for " ^ name)

let () =
  (* op [0,100] holds strategy [10,60], which holds search [20,50];
     layout [70,90] is a second child of op. *)
  let spans =
    [ span "search" 20. 30.;
      span "op" 0. 100.;
      span "layout" 70. 20.;
      span "strategy" 10. 50. ]
  in
  let t, n = self_of "op" spans in
  close_to "op self" 30. t;
  assert (n = 1);
  close_to "strategy self" 20. (fst (self_of "strategy" spans));
  close_to "search self" 30. (fst (self_of "search" spans));
  close_to "layout self" 20. (fst (self_of "layout" spans));
  (* spans of the same name are summed and counted *)
  let repeated = [ span "op" 0. 10.; span "op" 20. 10.; span "p" 22. 4. ] in
  let t, n = self_of "op" repeated in
  close_to "repeated op" 16. t;
  assert (n = 2);
  (* a span on another thread is never a child *)
  let threads = [ span ~tid:0 "a" 0. 10.; span ~tid:1 "b" 2. 5. ] in
  close_to "other thread" 10. (fst (self_of "a" threads));
  (* a span that starts where its predecessor ends is a sibling *)
  let siblings = [ span "x" 0. 10.; span "y" 10. 5. ] in
  close_to "sibling x" 10. (fst (self_of "x" siblings));
  close_to "sibling y" 5. (fst (self_of "y" siblings))

let () = print_endline "perfbench stats: ok"
