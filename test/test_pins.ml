(* The committed pins (test/pins/*.pins) against the predictor and the
   optimizer as they are now.  Any difference is a behaviour change: a
   refactoring must leave every line as it was; a change meant to move
   results regenerates the file with test/pins/gen.exe. *)

let corpus = "../corpus"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let compare_lines what ~expected actual =
  let expected = read_lines expected in
  let n = List.length expected in
  if List.length actual <> n then
    Alcotest.failf "%s: %d lines, pinned %d" what (List.length actual) n;
  let diffs =
    List.filter (fun (e, a) -> e <> a) (List.combine expected actual)
  in
  match diffs with
  | [] -> ()
  | (e, a) :: _ ->
    Alcotest.failf "%s: %d of %d lines differ; first:\n  pinned %s\n  now    %s"
      what (List.length diffs) n e a

let test_predict () =
  compare_lines "predict" ~expected:"pins/predict.pins"
    (Pins.predict_lines ~corpus)

let test_optimize () =
  compare_lines "optimize" ~expected:"pins/optimize.pins"
    (Pins.optimize_lines ~corpus)

let suites =
  [ ( "pins",
      [ Alcotest.test_case "predictor bit-exact" `Quick test_predict;
        Alcotest.test_case "optimizer outputs" `Quick test_optimize ] ) ]
