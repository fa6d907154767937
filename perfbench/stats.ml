(* Order statistics and span self-time for the benchmark.  Kept free of
   the repository's libraries so the test next to it can pin the
   arithmetic on hand-made inputs. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank percentile, [p] in (0, 100]: the smallest sample with at
   least p% of the samples at or below it.  The same rule the serve load
   generator uses, so client-side percentiles compare with its output. *)
let percentile samples p =
  let s = sorted_copy samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], which is how the benchmark's
   spread is judged: cut points at i(n+1)/4, index clamped to
   [1, n-1], linear interpolation (and extrapolation) between
   neighbours.  One sample is its own three quartiles. *)
let quartiles samples =
  let s = sorted_copy samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Median by midpoint averaging, as Python's [statistics.median]. *)
let median samples =
  let s = sorted_copy samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type span = { name : string; tid : int; start : float; dur : float }

(* Self time per span name: each span's duration minus the part of it its
   child spans cover, summed by name, with the number of spans of that
   name.  Spans of one thread nest properly (a span finishes before its
   parent does), so a span's children are the spans opened inside it
   that no deeper open span contains, and they never overlap each other:
   the covered part is the sum of their durations, clipped to the
   parent's interval.  Spans of different threads are independent. *)
let self_times spans =
  let ordered =
    List.sort
      (fun a b ->
        match compare a.tid b.tid with
        | 0 -> (
          match compare a.start b.start with 0 -> compare b.dur a.dur | c -> c)
        | c -> c)
      spans
  in
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  let close (sp, covered) =
    let self = Float.max 0. (sp.dur -. covered) in
    let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt totals sp.name) in
    Hashtbl.replace totals sp.name (t +. self, n + 1)
  in
  (* [stack]: open spans of the current thread, innermost first, each
     with the time its children have covered so far. *)
  let rec place stack sp =
    match stack with
    | (parent, covered) :: rest ->
      let parent_end = parent.start +. parent.dur in
      if parent.tid = sp.tid && sp.start < parent_end then begin
        let inside = Float.min (sp.start +. sp.dur) parent_end -. sp.start in
        (sp, 0.) :: (parent, covered +. inside) :: rest
      end
      else begin
        close (parent, covered);
        place rest sp
      end
    | [] -> [ (sp, 0.) ]
  in
  let stack = List.fold_left place [] ordered in
  List.iter close stack;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
  |> List.sort compare
