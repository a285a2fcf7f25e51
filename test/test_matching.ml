(* Tests for Fsa_matching: Hungarian algorithm against exhaustive search. *)

open Fsa_matching

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

let matrix_gen =
  QCheck.(
    map
      (fun (rows, cols, seed) ->
        let rng = Fsa_util.Rng.create seed in
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> Fsa_util.Rng.float rng 12.0 -. 2.0)))
      (triple (int_range 1 6) (int_range 1 6) (int_bound 100_000)))

let selection_value w pairs =
  List.fold_left (fun acc (i, j) -> acc +. w.(i).(j)) 0.0 pairs

let is_matching pairs =
  let rows = List.map fst pairs and cols = List.map snd pairs in
  List.length (List.sort_uniq compare rows) = List.length rows
  && List.length (List.sort_uniq compare cols) = List.length cols

let test_hungarian_optimal_qcheck =
  QCheck.Test.make ~name:"Hungarian equals exhaustive optimum" ~count:300 matrix_gen
    (fun w ->
      let pairs, total = Hungarian.solve w in
      let brute = Hungarian.solve_exactly_brute w in
      is_matching pairs
      && Float.abs (total -. selection_value w pairs) < 1e-9
      && Float.abs (total -. brute) < 1e-6)

let test_hungarian_known_square () =
  let w = [| [| 1.0; 5.0 |]; [| 4.0; 2.0 |] |] in
  let _, total = Hungarian.solve w in
  check_float "anti-diagonal" 9.0 total

let test_hungarian_skips_negative () =
  let w = [| [| -3.0; -1.0 |]; [| -2.0; -4.0 |] |] in
  let pairs, total = Hungarian.solve w in
  check_int "nothing matched" 0 (List.length pairs);
  check_float "zero total" 0.0 total

let test_hungarian_partial_match () =
  (* Matching only where beneficial: one strong pair, one poor row. *)
  let w = [| [| 10.0 |]; [| -1.0 |] |] in
  let pairs, total = Hungarian.solve w in
  check_int "single pair" 1 (List.length pairs);
  check_float "value" 10.0 total

let test_hungarian_rect () =
  let w = [| [| 1.0; 2.0; 3.0 |] |] in
  let pairs, total = Hungarian.solve w in
  check_int "one row one pair" 1 (List.length pairs);
  check_float "best column" 3.0 total

let test_hungarian_empty () =
  let pairs, total = Hungarian.solve [||] in
  check_int "no pairs" 0 (List.length pairs);
  check_float "zero" 0.0 total

let test_hungarian_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Hungarian.solve: ragged matrix")
    (fun () -> ignore (Hungarian.solve [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let () =
  Alcotest.run "fsa_matching"
    [
      ( "hungarian",
        [
          qtest test_hungarian_optimal_qcheck;
          Alcotest.test_case "known square" `Quick test_hungarian_known_square;
          Alcotest.test_case "negative skipped" `Quick test_hungarian_skips_negative;
          Alcotest.test_case "partial" `Quick test_hungarian_partial_match;
          Alcotest.test_case "rectangular" `Quick test_hungarian_rect;
          Alcotest.test_case "empty" `Quick test_hungarian_empty;
          Alcotest.test_case "ragged" `Quick test_hungarian_ragged;
        ] );
    ]
