(* Tests for Fsa_check: generator bounds and determinism, oracle
   plumbing, shrinker contract (satellite of the fuzzing subsystem), and
   the pinned-seed corpus replay that keeps the solvers honest on every
   test run. *)

open Fsa_csr
module Rng = Fsa_util.Rng
module Gen = Fsa_check.Gen
module Oracle = Fsa_check.Oracle
module Shrink = Fsa_check.Shrink
module Fuzz = Fsa_check.Fuzz

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)

let test_gen_deterministic () =
  let text seed = Instance.to_text (Gen.instance (Rng.create seed)) in
  for seed = 0 to 20 do
    check_string "same seed, same instance" (text seed) (text seed)
  done

let test_gen_bounds () =
  let rng = Rng.create 99 in
  for _ = 1 to 300 do
    let inst = Gen.instance (Rng.split rng) in
    List.iter
      (fun side ->
        let k = Instance.fragment_count inst side in
        check_bool "side non-empty" true (k >= 1);
        check_bool "within exactness boundary" true
          (k <= Gen.max_fragments_per_side);
        Array.iter
          (fun f ->
            let n = Fsa_seq.Fragment.length f in
            check_bool "fragment length in [1, 5]" true (n >= 1 && n <= 5))
          (Instance.fragments inst side))
      [ Species.H; Species.M ];
    (* the exact oracle must stay affordable on every generated instance *)
    match Exact.solve inst with
    | Ok _ -> ()
    | Error (`Budget_exceeded _) -> Alcotest.fail "generated instance over budget"
  done

(* ------------------------------------------------------------------ *)
(* Oracle                                                               *)

let test_oracle_names () =
  check_bool "has properties" true (List.length Oracle.property_names > 30);
  List.iter
    (fun p ->
      check_bool (p ^ " listed") true (List.mem p Oracle.property_names))
    [
      "greedy.valid";
      "solve_best.conjecture";
      "exact.witness";
      "csr_improve.ratio3";
      "four_approx_tpa.ratio4";
      "four_approx_exact_isp.ratio2";
      "isp.tpa_half_h";
      "full_improve.local_opt";
      "border_improve.local_opt";
      "csr_improve.local_opt";
      "csr_improve.start";
      "improve.attempt_bound";
    ]

let test_oracle_paper_example () =
  check_int "paper example passes every property" 0
    (List.length (Oracle.run (Instance.paper_example ())))

(* Gen seed 1, instance 43: CSR_Improve climbing from the empty solution
   stops at 3, below the 4-approximation's 4.  Started from the better
   cheap answer, it cannot end below it. *)
let test_oracle_start_pinned () =
  let inst =
    Instance.of_text
      "H h1: r0 r0'\nH h2: r0' r0\nM m1: r0 r0' r0\nM m2: r0 r0 r0 r0' r0\nS r0 r0' 1\n"
  in
  let start =
    Float.max
      (Solution.score (One_csr.four_approx inst))
      (Solution.score (Border_improve.matching_2approx inst))
  in
  Alcotest.(check (float 1e-9)) "the start" 4.0 start;
  check_bool "reaches its start" true
    (Solution.score (fst (Csr_improve.solve inst)) >= start);
  check_bool "csr_improve.start holds" false (Oracle.fails "csr_improve.start" inst)

let test_oracle_unknown_property () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Oracle.fails: unknown property nope") (fun () ->
      ignore (Oracle.fails "nope" (Instance.paper_example ())))

(* ------------------------------------------------------------------ *)
(* Shrinker                                                             *)

(* A synthetic failure predicate lets the tests pin the shrinker contract
   without needing a buggy solver: "fails" while the H side still carries
   ≥ 3 symbols and σ still has an entry. *)
let synthetic inst =
  Instance.total_length inst Species.H >= 3
  && Fsa_seq.Scoring.entries inst.Instance.sigma <> []

let test_shrink_deterministic () =
  let inst = Instance.paper_example () in
  let s1, n1 = Shrink.shrink_on synthetic inst in
  let s2, n2 = Shrink.shrink_on synthetic inst in
  check_string "same shrunk instance" (Instance.to_text s1) (Instance.to_text s2);
  check_int "same step count" n1 n2;
  check_bool "actually shrank" true (n1 > 0)

let test_shrink_still_fails () =
  let inst = Instance.paper_example () in
  let shrunk, _ = Shrink.shrink_on synthetic inst in
  check_bool "shrunk form still fails the predicate" true (synthetic shrunk)

let test_shrink_locally_minimal () =
  let inst = Instance.paper_example () in
  let shrunk, _ = Shrink.shrink_on synthetic inst in
  List.iter
    (fun c -> check_bool "every one-step reduction passes" false (synthetic c))
    (Shrink.candidates shrunk)

let test_shrink_passing_instance_untouched () =
  let inst = Instance.paper_example () in
  let same, steps = Shrink.shrink_on (fun _ -> false) inst in
  check_int "no steps" 0 steps;
  check_string "unchanged" (Instance.to_text inst) (Instance.to_text same)

let test_shrink_unknown_property () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Shrink.shrink: unknown property nope") (fun () ->
      ignore (Shrink.shrink ~property:"nope" (Instance.paper_example ())))

let test_candidates_shrink_size () =
  (* every candidate is strictly smaller in (fragments, symbols, entries) *)
  let inst = Instance.paper_example () in
  let weight i =
    Instance.fragment_count i Species.H
    + Instance.fragment_count i Species.M
    + Instance.total_length i Species.H
    + Instance.total_length i Species.M
    + List.length (Fsa_seq.Scoring.entries i.Instance.sigma)
  in
  let w = weight inst in
  List.iter
    (fun c -> check_bool "strictly smaller" true (weight c < w))
    (Shrink.candidates inst)

(* ------------------------------------------------------------------ *)
(* Fuzzing loop                                                         *)

let test_fuzz_deterministic () =
  let o1 = Fuzz.run ~seed:17 ~count:40 () in
  let o2 = Fuzz.run ~seed:17 ~count:40 () in
  check_int "same instances" o1.Fuzz.instances o2.Fuzz.instances;
  check_int "same counterexamples"
    (List.length o1.Fuzz.counterexamples)
    (List.length o2.Fuzz.counterexamples)

let test_fuzz_stop_hook () =
  let o = Fuzz.run ~stop:(fun () -> true) ~seed:1 ~count:100 () in
  check_int "stopped before the first instance" 0 o.Fuzz.instances;
  check_int "no counterexamples" 0 (List.length o.Fuzz.counterexamples)

let test_fuzz_json_roundtrip () =
  let o = Fuzz.run ~seed:3 ~count:5 () in
  let json = Fsa_obs.Json.to_string (Fuzz.outcome_to_json o) in
  match Fsa_obs.Json.of_string json with
  | Fsa_obs.Json.Obj fields ->
      check_bool "has instances field" true (List.mem_assoc "instances" fields)
  | _ -> Alcotest.fail "outcome JSON did not parse back to an object"

(* The pinned corpus: every (seed, count) pair must stay green.  A solver
   regression that violates validity, the conjecture round-trip, or a
   proven approximation ratio fails here before it reaches a benchmark. *)
let test_corpus_replay () =
  List.iter
    (fun (seed, count) ->
      let o = Fuzz.run ~seed ~count () in
      check_int (Printf.sprintf "seed %d examined all" seed) count o.Fuzz.instances;
      match o.Fuzz.counterexamples with
      | [] -> ()
      | c :: _ ->
          Alcotest.failf "seed %d: %s on instance %d:\n%s\n%s" seed c.Fuzz.property
            c.Fuzz.index c.Fuzz.detail c.Fuzz.shrunk)
    Fuzz.corpus

let () =
  Alcotest.run "fsa_check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "bounds" `Quick test_gen_bounds;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "property names" `Quick test_oracle_names;
          Alcotest.test_case "paper example passes" `Quick test_oracle_paper_example;
          Alcotest.test_case "start pinned" `Quick test_oracle_start_pinned;
          Alcotest.test_case "unknown property" `Quick test_oracle_unknown_property;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
          Alcotest.test_case "still fails" `Quick test_shrink_still_fails;
          Alcotest.test_case "locally minimal" `Quick test_shrink_locally_minimal;
          Alcotest.test_case "passing untouched" `Quick
            test_shrink_passing_instance_untouched;
          Alcotest.test_case "unknown property" `Quick test_shrink_unknown_property;
          Alcotest.test_case "candidates shrink size" `Quick
            test_candidates_shrink_size;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "stop hook" `Quick test_fuzz_stop_hook;
          Alcotest.test_case "json round-trip" `Quick test_fuzz_json_roundtrip;
          Alcotest.test_case "pinned corpus replay" `Slow test_corpus_replay;
        ] );
    ]
