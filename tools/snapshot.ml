(* Exact solver outputs — scores to 17 digits, Solution.to_text, and the
   rounds/improvements/evaluated stats of the local searches — on the paper
   example and small planted and uniform instances.  `dune runtest` diffs
   the output against snapshot.expected, so any change in what a solver
   returns, or in how it gets there, shows up as a diff:

     dune exec tools/snapshot.exe > tools/snapshot.expected

   re-records it after a deliberate change. *)
module Rng = Fsa_util.Rng
open Fsa_csr

let pr fmt = Printf.printf fmt

let dump name sol =
  pr "%s score=%.17g size=%d\n" name (Solution.score sol) (Solution.size sol);
  print_string (Solution.to_text sol)

let run_inst tag inst =
  dump (tag ^ " four_approx") (One_csr.four_approx inst);
  dump (tag ^ " four_approx_greedy") (One_csr.four_approx ~algorithm:One_csr.Greedy_isp inst);
  let sol, stats = Full_improve.solve inst in
  dump (Printf.sprintf "%s full_improve r=%d i=%d e=%d" tag stats.Improve.rounds
          stats.Improve.improvements stats.Improve.evaluated) sol;
  let sol, stats = Border_improve.solve inst in
  dump (Printf.sprintf "%s border_improve r=%d i=%d e=%d" tag stats.Improve.rounds
          stats.Improve.improvements stats.Improve.evaluated) sol;
  let sol, stats = Csr_improve.solve inst in
  dump (Printf.sprintf "%s csr_improve r=%d i=%d e=%d" tag stats.Improve.rounds
          stats.Improve.improvements stats.Improve.evaluated) sol;
  dump (tag ^ " solve_best") (Csr_improve.solve_best inst);
  dump (tag ^ " scaled") (Csr_improve.solve_scaled inst)

let () =
  run_inst "paper" (Instance.paper_example ());
  for seed = 1 to 8 do
    let rng = Rng.create seed in
    let inst =
      Instance.random_planted rng ~regions:14 ~h_fragments:4 ~m_fragments:4
        ~inversion_rate:0.25 ~noise_pairs:6
    in
    run_inst (Printf.sprintf "planted%d" seed) inst
  done;
  for seed = 21 to 26 do
    let rng = Rng.create seed in
    let inst =
      Instance.random_uniform rng ~regions:10 ~h_fragments:3 ~m_fragments:4
        ~density:0.25
    in
    run_inst (Printf.sprintf "uniform%d" seed) inst
  done
