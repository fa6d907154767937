(* Regenerate the committed pins from the repository root:

     dune exec test/pins/gen.exe -- predict > test/pins/predict.pins
     dune exec test/pins/gen.exe -- optimize > test/pins/optimize.pins

   Only regenerate when a change is meant to move the predictor or the
   optimizer; the diff is then the review record of what moved. *)

let () =
  let corpus = "corpus" in
  let print = List.iter print_endline in
  match Sys.argv with
  | [| _; "predict" |] -> print (Pins.predict_lines ~corpus)
  | [| _; "optimize" |] -> print (Pins.optimize_lines ~corpus)
  | _ ->
    prerr_endline "usage: gen.exe predict|optimize";
    exit 1
