(* End-to-end integration tests across libraries: the full worked example,
   serialization round trips through the solvers, algorithm dominance
   chains, the hardness gadget driven through the CSR machinery, and the
   genome pipeline at a larger scale. *)

open Fsa_seq
open Fsa_csr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

(* ------------------------------------------------------------------ *)
(* The paper's running example, end to end                              *)

let test_paper_pipeline () =
  let inst = Instance.paper_example () in
  (* Every solver produces a consistent solution whose conjecture pair
     scores the same; the hierarchy greedy <= best <= exact holds. *)
  let opt = Exact.solve_score inst in
  check_float "optimum" 11.0 opt;
  let solvers =
    [
      ("greedy", Greedy.solve inst);
      ("four_approx", One_csr.four_approx inst);
      ("matching", Border_improve.matching_2approx inst);
      ("full_improve", fst (Full_improve.solve inst));
      ("border_improve", fst (Border_improve.solve inst));
      ("csr_improve", fst (Csr_improve.solve inst));
      ("csr_improve_scaled", Csr_improve.solve_scaled inst);
    ]
  in
  List.iter
    (fun (name, sol) ->
      check_bool (name ^ " valid") true (Result.is_ok (Solution.validate sol));
      check_bool (name ^ " within optimum") true (Solution.score sol <= opt +. 1e-6);
      let conj = Conjecture.of_solution_exn sol in
      check_bool (name ^ " conjecture valid") true (Result.is_ok (Conjecture.check inst conj));
      check_float (name ^ " conjecture score") (Solution.score sol) (Conjecture.score inst conj))
    solvers;
  check_float "csr_improve optimal here" 11.0
    (Solution.score (List.assoc "csr_improve" solvers))

let test_serialized_solve_roundtrip () =
  let inst = Instance.paper_example () in
  let text = Instance.to_text inst in
  let inst2 = Instance.of_text text in
  let sol = fst (Csr_improve.solve inst2) in
  check_float "solving the parse reaches the optimum" 11.0 (Solution.score sol)

(* ------------------------------------------------------------------ *)
(* Dominance and guarantee chain on random instances                    *)

let test_guarantee_chain_qcheck =
  QCheck.Test.make ~name:"solver guarantees hold jointly on random instances"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let inst =
        Instance.random_planted rng ~regions:7
          ~h_fragments:(1 + Fsa_util.Rng.int rng 3)
          ~m_fragments:(1 + Fsa_util.Rng.int rng 3)
          ~inversion_rate:0.25 ~noise_pairs:5
      in
      let opt = Exact.solve_score inst in
      let best = Csr_improve.solve_best inst in
      let four = One_csr.four_approx inst in
      let greedy = Greedy.solve inst in
      Solution.score best <= opt +. 1e-6
      && Solution.score greedy <= opt +. 1e-6
      && (4.0 *. Solution.score four) +. 1e-6 >= opt
      && (3.0 *. Solution.score best) +. 1e-6 >= opt)

let test_scaled_vs_unscaled_qcheck =
  QCheck.Test.make ~name:"scaling costs at most a small factor" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let inst =
        Instance.random_planted rng ~regions:6 ~h_fragments:2 ~m_fragments:2
          ~inversion_rate:0.2 ~noise_pairs:3
      in
      let scaled = Csr_improve.solve_scaled ~epsilon:0.1 inst in
      let opt = Exact.solve_score inst in
      (3.0 *. 1.15 *. Solution.score scaled) +. 1e-6 >= opt)

(* ------------------------------------------------------------------ *)
(* Hardness gadget through the CSR machinery                            *)

let test_gadget_to_csr_chain () =
  let rng = Fsa_util.Rng.create 21 in
  let g0 = Fsa_graph.Cubic.random rng 8 in
  let ord = Fsa_graph.Cubic.non_consecutive_ordering rng g0 in
  let g = Fsa_graph.Cubic.relabel g0 ord in
  let w_star = Fsa_graph.Mis.exact g in
  let csop = Csop.of_graph g in
  let u = Csop.exact ~incumbent:(Csop.solution_of_mis g w_star) csop in
  check_int "Thm 2 value" (Csop.value_of_mis g w_star) (List.length u);
  (* Through the CSR encoding, the ISP-based approximation must land
     within its factor of the CSoP optimum (the local search is exercised
     on the gadget by the benchmark harness; it is too slow for the test
     suite at this size). *)
  let inst = Csop.to_instance csop in
  let sol = One_csr.four_approx inst in
  check_bool "4-approx on the gadget" true
    ((4.0 *. Solution.score sol) +. 1e-6 >= float_of_int (List.length u));
  check_bool "never above the optimum" true
    (Solution.score sol <= float_of_int (List.length u) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Genome pipeline at scale                                             *)

let test_pipeline_larger_scale () =
  let rng = Fsa_util.Rng.create 22 in
  let p =
    {
      Fsa_genome.Pipeline.regions = 20;
      region_len = 50;
      spacer_len = 30;
      h_pieces = 4;
      m_pieces = 8;
      substitution_rate = 0.02;
      inversions = 1;
      translocations = 0;
      indels = 0;
      duplications = 0;
      rearrangement_len = 100;
    }
  in
  let _, sol, report =
    Fsa_genome.Pipeline.run rng ~mode:`Oracle p ~solver:Csr_improve.solve_best
  in
  check_bool "valid" true (Result.is_ok (Solution.validate sol));
  check_bool "high accuracy with one inversion" true
    (Fsa_genome.Metrics.order_accuracy report >= 0.7);
  check_bool "high coverage" true (Fsa_genome.Metrics.coverage report >= 0.7)

let test_pipeline_discovery_vs_oracle () =
  (* Discovery-mode score is on a different scale (anchor scores vs region
     identities), but both modes must orient most contigs. *)
  let p =
    { Fsa_genome.Pipeline.default_params with substitution_rate = 0.02; inversions = 1 }
  in
  let run mode seed =
    let rng = Fsa_util.Rng.create seed in
    let _, _, report = Fsa_genome.Pipeline.run rng ~mode p ~solver:Csr_improve.solve_best in
    Fsa_genome.Metrics.coverage report
  in
  check_bool "oracle coverage" true (run `Oracle 23 >= 0.7);
  check_bool "discovery coverage" true (run `Discovery 23 >= 0.6)

(* ------------------------------------------------------------------ *)
(* CLI error handling: csr_solve and genome_sim must fail cleanly, not with
   a raw exception trace.  The executables declared in (deps) live next to
   this test binary's directory (_build/default/{test,bin}), so resolve them
   from [Sys.executable_name] rather than the cwd.                         *)

let bin_exe name =
  let dir = Filename.dirname Sys.executable_name in
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  Filename.concat dir (Filename.concat Filename.parent_dir_name
                         (Filename.concat "bin" name))

let run_cli exe args =
  let out = Filename.temp_file "cli_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote (bin_exe exe)) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let run_csr_solve = run_cli "csr_solve.exe"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_cli_missing_file () =
  let code, text = run_csr_solve "/nonexistent/instance.txt" in
  check_int "exit code" 2 code;
  check_bool "prefixed error" true (contains ~needle:"csr_solve: error" text);
  check_bool "no raw backtrace" false (contains ~needle:"Fatal error" text)

let with_instance_file text f =
  let path = Filename.temp_file "csr_bad" ".txt" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f (Filename.quote path))

let paper_text = Instance.to_text (Instance.paper_example ())

(* Each case is a user error, named by file and line: a σ value that is
   not finite would print an infinite or silently zero score, and a name
   repeated on one side would make solution text ambiguous. *)
let test_cli_malformed_file () =
  List.iter
    (fun (case, text, needle) ->
      let code, out = with_instance_file text run_csr_solve in
      check_int (case ^ " exit code") 2 code;
      check_bool (case ^ " prefixed error") true (contains ~needle:"csr_solve: error" out);
      check_bool (case ^ " names the file") true (contains ~needle:"csr_bad" out);
      check_bool (case ^ " says why") true (contains ~needle out);
      check_bool (case ^ " no raw backtrace") false (contains ~needle:"Fatal error" out))
    [
      ("garbage", "this is not an instance\n%%%\n", "line 1");
      ("infinite score", paper_text ^ "S a s inf\n", "not a finite number");
      ("overflowing score", paper_text ^ "S a s 1e400\n", "not a finite number");
      ("nan score", paper_text ^ "S a s nan\n", "not a finite number");
      ("repeated name", paper_text ^ "H h1: a\n", "named twice");
      ("empty name", "H : a\n" ^ paper_text, "line 1: empty fragment name");
    ]

(* --scaled checks --epsilon before solving; a tiny ε still scales (the
   paper example's optimum is 11). *)
let test_cli_scaled_epsilon () =
  with_instance_file paper_text @@ fun file ->
  let run eps =
    run_csr_solve (Printf.sprintf "--algorithm csr-improve --scaled --epsilon=%s %s" eps file)
  in
  List.iter
    (fun eps ->
      let code, out = run eps in
      check_int (eps ^ " exit code") 2 code;
      check_bool (eps ^ " prefixed error") true (contains ~needle:"csr_solve: error" out);
      check_bool (eps ^ " names the flag") true (contains ~needle:"--epsilon" out))
    [ "0"; "nan" ];
  let code, out = run "1e-300" in
  check_int "1e-300 exit code" 0 code;
  check_bool "1e-300 finds the optimum" true (contains ~needle:"solution (score 11.00)" out)

(* An unwritable --flight-recorder path is a user error caught at setup,
   as --trace's is, even when a portfolio deadline trips and the dump
   would happen inside the budget's trip hook. *)
let test_cli_flight_unwritable () =
  let rng = Fsa_util.Rng.create 16 in
  let inst =
    Instance.random_sparse rng ~regions:128 ~h_fragments:32 ~m_fragments:32
      ~inversion_rate:0.2 ~noise_pairs:64 ~noise_span:3
  in
  let path = Filename.temp_file "csr_sparse" ".txt" in
  let oc = open_out path in
  output_string oc (Instance.to_text inst);
  close_out oc;
  let code, text =
    run_csr_solve
      (Printf.sprintf
         "--flight-recorder /nonexistent/dir/fd.jsonl --portfolio --deadline-ms 5 %s"
         (Filename.quote path))
  in
  Sys.remove path;
  check_int "exit code" 2 code;
  check_bool "prefixed error" true (contains ~needle:"csr_solve: error" text);
  check_bool "no uncaught exception" false (contains ~needle:"uncaught exception" text)

(* genome_sim discover: a bad flag value is a user error (exit 2, a
   prefixed message naming the flag), checked before the FASTA files are
   read; exit 1 is kept for "no conserved regions discovered". *)
let with_fasta_pair f =
  let write name dna =
    let path = Filename.temp_file name ".fa" in
    Fsa_seq.Fasta.write_file path [ { Fsa_seq.Fasta.name; description = ""; dna } ];
    path
  in
  let rng = Fsa_util.Rng.create 5 in
  let h = write "h" (Fsa_seq.Dna.random rng 200)
  and m = write "m" (Fsa_seq.Dna.random rng 200) in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove h;
      Sys.remove m)
    (fun () -> f (Filename.quote h ^ " " ^ Filename.quote m))

let test_discover_bad_flags () =
  with_fasta_pair @@ fun files ->
  List.iter
    (fun (flag, value) ->
      let code, text =
        run_cli "genome_sim.exe" (Printf.sprintf "discover %s %s%s" files flag value)
      in
      let case = flag ^ value in
      check_int (case ^ " exit code") 2 code;
      check_bool (case ^ " prefixed error") true
        (contains ~needle:"genome_sim discover: error:" text);
      check_bool (case ^ " names the flag") true (contains ~needle:flag text))
    [
      ("-k", " 0");
      ("-k", " 31");
      ("--band", " 0");
      ("--max-gap", "=-1");
      ("--band-cap", "=-1");
      ("--cluster-gap", "=-5");
      ("--min-anchor-score", " nan");
    ]

let test_discover_nothing_found () =
  with_fasta_pair @@ fun files ->
  let code, text = run_cli "genome_sim.exe" ("discover " ^ files) in
  check_int "exit code" 1 code;
  check_bool "says why" true (contains ~needle:"no conserved regions" text)

(* The default command in discovery mode: a genome too short to seed
   discovers nothing, which exits 1 as discover does, not as an uncaught
   exception. *)
let test_run_nothing_found () =
  let code, text =
    run_cli "genome_sim.exe"
      "--mode discovery --regions 1 --region-len 8 --h-pieces 1 --m-pieces 1 --reps 1"
  in
  check_int "exit code" 1 code;
  check_bool "says why" true (contains ~needle:"no conserved regions" text);
  check_bool "no uncaught exception" false (contains ~needle:"uncaught exception" text)

(* ------------------------------------------------------------------ *)
(* Cross-checking MS against the conjecture semantics                   *)

let test_ms_is_achievable_qcheck =
  (* For a single full match, the paper's MS must equal the best achievable
     two-fragment conjecture score using only those two fragments. *)
  QCheck.Test.make ~name:"MS(h, m-full) equals the 1v1 exact optimum" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let inst =
        Instance.random_planted rng ~regions:5 ~h_fragments:1 ~m_fragments:1
          ~inversion_rate:0.4 ~noise_pairs:3
      in
      let m =
        Cmatch.full inst ~full_side:Species.M 0 ~other_frag:0
          ~other_site:(Fragment.full_site (Instance.fragment inst Species.H 0))
      in
      Float.abs (m.Cmatch.score -. Exact.solve_score inst) < 1e-6)

let () =
  Alcotest.run "fsa_integration"
    [
      ( "paper",
        [
          Alcotest.test_case "all solvers end to end" `Quick test_paper_pipeline;
          Alcotest.test_case "serialize & solve" `Quick test_serialized_solve_roundtrip;
        ] );
      ( "guarantees",
        [
          qtest test_guarantee_chain_qcheck;
          qtest test_scaled_vs_unscaled_qcheck;
          qtest test_ms_is_achievable_qcheck;
        ] );
      ( "hardness",
        [ Alcotest.test_case "gadget chain" `Quick test_gadget_to_csr_chain ] );
      ( "cli",
        [
          Alcotest.test_case "missing instance file" `Quick test_cli_missing_file;
          Alcotest.test_case "malformed instance file" `Quick test_cli_malformed_file;
          Alcotest.test_case "scaled epsilon" `Quick test_cli_scaled_epsilon;
          Alcotest.test_case "unwritable flight recorder" `Quick
            test_cli_flight_unwritable;
          Alcotest.test_case "discover rejects bad flags" `Quick test_discover_bad_flags;
          Alcotest.test_case "discover finds nothing" `Quick test_discover_nothing_found;
          Alcotest.test_case "discovery run finds nothing" `Quick test_run_nothing_found;
        ] );
      ( "genome",
        [
          Alcotest.test_case "larger scale" `Quick test_pipeline_larger_scale;
          Alcotest.test_case "discovery vs oracle" `Quick test_pipeline_discovery_vs_oracle;
        ] );
    ]
