(* Regression and property tests for the incremental hot path:

   - Improve.run round accounting: stats pinned for 0- and 1-improvement
     runs, and the emitted Move/Step events carry the same round numbers;
   - Improve.run's circular scan on synthetic attempt lists: each round
     starts at the previous winner (modulo the round's list length), wraps
     once, and the closing pass evaluates the list exactly once;
   - attempt labels: forced only for committed moves of traced runs, and
     the traced Move labels pinned on the paper example;
   - indexed Solution vs a naive list oracle (score, contribution,
     free_sites, is_hidden, and every bucket against a rebuild) over random
     sequences that add full and border matches and prepare sites that
     shrink or break them;
   - array-backed Isp.tpa/greedy vs the original list-backed
     implementations (identical values and selections);
   - the all-windows MS kernel vs per-window p_score calls (bit equality);
   - Bitset range operations vs a per-bit model;
   - scaling truncation loss within the bound documented in Improve.mli;
   - tpa_fill consistency counters stay silent on healthy runs. *)

open Fsa_seq
open Fsa_csr
module Isp = Fsa_intervals.Isp
module Interval = Fsa_intervals.Interval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t
let paper = Instance.paper_example
let seed_gen = QCheck.(int_bound 1_000_000)

let small_instance seed =
  let rng = Fsa_util.Rng.create seed in
  let planted = Fsa_util.Rng.bool rng in
  let h_fragments = 1 + Fsa_util.Rng.int rng 3 in
  let m_fragments = 1 + Fsa_util.Rng.int rng 3 in
  if planted then
    Instance.random_planted rng ~regions:6 ~h_fragments ~m_fragments
      ~inversion_rate:0.3 ~noise_pairs:4
  else
    Instance.random_uniform rng ~regions:6 ~h_fragments ~m_fragments ~density:0.25

(* ------------------------------------------------------------------ *)
(* Improve.run round accounting (S1)                                    *)

let run_with_events ?max_improvements ~attempts inst =
  let sink, events = Fsa_obs.Sink.memory () in
  let result =
    Fsa_obs.Runtime.with_observation ~sink (fun () ->
        Improve.run ?max_improvements ~name:"t" ~attempts
          ~init:(Solution.empty inst) ())
  in
  (result, events ())

let step_rounds evs =
  List.filter_map
    (function Fsa_obs.Event.Step { round; _ } -> Some round | _ -> None)
    evs

let move_rounds evs =
  List.filter_map
    (function Fsa_obs.Event.Move { round; _ } -> Some round | _ -> None)
    evs

(* A positive-score full match of the instance, to drive one improvement. *)
let positive_full_match inst =
  let exception Found of Cmatch.t in
  try
    for f = 0 to Instance.fragment_count inst Species.H - 1 do
      for g = 0 to Instance.fragment_count inst Species.M - 1 do
        let len = Fragment.length (Instance.fragment inst Species.M g) in
        List.iter
          (fun site ->
            let m =
              Cmatch.full inst ~full_side:Species.H f ~other_frag:g
                ~other_site:site
            in
            if m.Cmatch.score > 0.0 then raise (Found m))
          (Site.all_subsites len)
      done
    done;
    Alcotest.fail "instance has no positive full match"
  with Found m -> m

let test_rounds_zero_improvements () =
  let (_, stats), evs = run_with_events ~attempts:(fun _ -> []) (paper ()) in
  check_int "rounds" 1 stats.Improve.rounds;
  check_int "improvements" 0 stats.Improve.improvements;
  check_int "evaluated" 0 stats.Improve.evaluated;
  check_bool "one Step event, same round as stats" true
    (step_rounds evs = [ stats.Improve.rounds ]);
  check_bool "no Move events" true (move_rounds evs = [])

let test_rounds_one_improvement () =
  let inst = paper () in
  let m = positive_full_match inst in
  let attempt =
    {
      Improve.label = (fun () -> "add-once");
      apply =
        (fun sol ->
          if Solution.size sol > 0 then None
          else match Solution.add sol m with Ok s -> Some s | Error _ -> None);
    }
  in
  let (_, stats), evs = run_with_events ~attempts:(fun _ -> [ attempt ]) inst in
  (* Scan 1 commits the attempt, scan 2 proves convergence. *)
  check_int "rounds" 2 stats.Improve.rounds;
  check_int "improvements" 1 stats.Improve.improvements;
  check_int "evaluated" 2 stats.Improve.evaluated;
  check_bool "Move in round 1" true (move_rounds evs = [ 1 ]);
  check_bool "final Step carries stats.rounds" true
    (step_rounds evs = [ stats.Improve.rounds ])

let test_rounds_cut_by_max_improvements () =
  let inst = paper () in
  let m = positive_full_match inst in
  let attempt =
    {
      Improve.label = (fun () -> "add-once");
      apply =
        (fun sol ->
          if Solution.size sol > 0 then None
          else match Solution.add sol m with Ok s -> Some s | Error _ -> None);
    }
  in
  let (_, stats), evs =
    run_with_events ~max_improvements:1 ~attempts:(fun _ -> [ attempt ]) inst
  in
  (* Every scan committed: rounds = improvements, and no closing Step. *)
  check_int "rounds" 1 stats.Improve.rounds;
  check_int "improvements" 1 stats.Improve.improvements;
  check_int "evaluated" 1 stats.Improve.evaluated;
  check_bool "Move in round 1" true (move_rounds evs = [ 1 ]);
  check_bool "no Step event" true (step_rounds evs = [])

(* Attempts refuse themselves once they cannot reach the base, which no
   min_gain >= 0 accepts; a negative one is rejected up front. *)
let test_negative_min_gain_rejected () =
  let inst = paper () in
  Alcotest.check_raises "negative min_gain"
    (Invalid_argument "Improve.run: negative min_gain") (fun () ->
      ignore
        (Improve.run ~min_gain:(-1.0)
           ~attempts:(fun _ -> Full_improve.attempts inst)
           ~init:(Solution.empty inst) ()))

(* ------------------------------------------------------------------ *)
(* Improve.run's circular scan, on a synthetic attempt list             *)

(* Three solutions of strictly increasing score: the empty one, a single
   positive full match and the 4-approximation's answer. *)
let ladder inst =
  let s1 = Result.get_ok (Solution.of_matches inst [ positive_full_match inst ]) in
  let s2 = One_csr.four_approx inst in
  check_bool "ladder climbs" true
    (0.0 < Solution.score s1 && Solution.score s1 < Solution.score s2);
  (Solution.empty inst, s1, s2)

(* [n] attempts; attempt i logs its index when applied, and moves the
   solution from [from] to [to_] when [moves] maps i to (from, to_). *)
let synthetic n moves log =
  List.init n (fun i ->
      {
        Improve.label = (fun () -> string_of_int i);
        apply =
          (fun sol ->
            log := i :: !log;
            match List.assoc_opt i moves with
            | Some (from, to_) when Solution.score sol = Solution.score from ->
                Some to_
            | Some _ | None -> None);
      })

let step_evaluated evs =
  List.filter_map
    (function Fsa_obs.Event.Step { evaluated; _ } -> Some evaluated | _ -> None)
    evs

let check_stats (stats : Improve.stats) ~rounds ~improvements ~evaluated =
  check_int "rounds" rounds stats.Improve.rounds;
  check_int "improvements" improvements stats.Improve.improvements;
  check_int "evaluated" evaluated stats.Improve.evaluated

let test_scan_resumes_at_winner () =
  let inst = paper () in
  let s0, s1, s2 = ladder inst in
  let log = ref [] in
  let atts = synthetic 5 [ (3, (s0, s1)); (4, (s1, s2)) ] log in
  let (sol, stats), _ = run_with_events ~attempts:(fun _ -> atts) inst in
  (* Round 1 wins at 3; round 2 starts there and wins at 4; round 3 is the
     closing pass from 4.  Restarting at 0 would evaluate 4 + 5 + 5. *)
  check_bool "evaluation order" true
    (List.rev !log = [ 0; 1; 2; 3; 3; 4; 4; 0; 1; 2; 3 ]);
  check_stats stats ~rounds:3 ~improvements:2 ~evaluated:11;
  check_float "final score" (Solution.score s2) (Solution.score sol)

let test_scan_closing_pass_is_one_circle () =
  let inst = paper () in
  let s0, s1, _ = ladder inst in
  let log = ref [] in
  let atts = synthetic 5 [ (2, (s0, s1)) ] log in
  let (_, stats), evs = run_with_events ~attempts:(fun _ -> atts) inst in
  check_bool "evaluation order" true (List.rev !log = [ 0; 1; 2; 2; 3; 4; 0; 1 ]);
  check_bool "the closing Step evaluated the list once" true
    (step_evaluated evs = [ 5 ]);
  check_stats stats ~rounds:2 ~improvements:1 ~evaluated:8;
  let (_, idle), evs =
    run_with_events ~attempts:(fun _ -> synthetic 5 [] (ref [])) inst
  in
  check_bool "an idle run's Step evaluated the list once" true
    (step_evaluated evs = [ 5 ]);
  check_stats idle ~rounds:1 ~improvements:0 ~evaluated:5

let test_scan_wraps_to_earlier_attempt () =
  let inst = paper () in
  let s0, s1, s2 = ladder inst in
  let log = ref [] in
  let atts = synthetic 5 [ (3, (s0, s1)); (1, (s1, s2)) ] log in
  let (sol, stats), evs = run_with_events ~attempts:(fun _ -> atts) inst in
  (* Round 2 starts at 3 and finds 1 after the wrap; round 3 starts at 1. *)
  check_bool "evaluation order" true
    (List.rev !log = [ 0; 1; 2; 3; 3; 4; 0; 1; 1; 2; 3; 4; 0 ]);
  check_bool "Moves in rounds 1 and 2" true (move_rounds evs = [ 1; 2 ]);
  check_stats stats ~rounds:3 ~improvements:2 ~evaluated:13;
  check_float "final score" (Solution.score s2) (Solution.score sol)

let test_scan_start_modulo_length () =
  let inst = paper () in
  let s0, s1, _ = ladder inst in
  let log = ref [] in
  (* The list shrinks from 5 to 3 after the win at 4: round 2 starts at
     4 mod 3 = 1. *)
  let attempts sol =
    if Solution.score sol = Solution.score s0 then
      synthetic 5 [ (4, (s0, s1)) ] log
    else synthetic 3 [] log
  in
  let (_, stats), _ = run_with_events ~attempts inst in
  check_bool "evaluation order" true (List.rev !log = [ 0; 1; 2; 3; 4; 1; 2; 0 ]);
  check_stats stats ~rounds:2 ~improvements:1 ~evaluated:8

(* ------------------------------------------------------------------ *)
(* Attempt labels are formatted on demand                               *)

let move_labels evs =
  List.filter_map
    (function Fsa_obs.Event.Move { label; _ } -> Some label | _ -> None)
    evs

let test_labels_forced_on_demand () =
  let inst = paper () in
  let forced = ref 0 in
  let counting =
    List.map
      (fun (a : Improve.attempt) ->
        { a with Improve.label = (fun () -> incr forced; a.Improve.label ()) })
      (Full_improve.attempts inst)
  in
  let attempts _ = counting in
  let _, plain = Improve.run ~attempts ~init:(Solution.empty inst) () in
  check_bool "the run commits moves" true (plain.Improve.improvements > 0);
  check_int "untraced: no label forced" 0 !forced;
  ignore
    (Fsa_obs.Runtime.with_observation ~registry:(Fsa_obs.Registry.create ())
       (fun () -> Improve.run ~attempts ~init:(Solution.empty inst) ()));
  check_int "counters only: no label forced" 0 !forced;
  let (_, traced), evs = run_with_events ~attempts inst in
  check_int "traced: one label per committed move" traced.Improve.improvements
    !forced;
  check_int "one Move per committed move" traced.Improve.improvements
    (List.length (move_labels evs))

(* The Move labels of traced solves on the paper example, pinned to the
   strings the eagerly formatted labels produced. *)
let test_move_labels_pinned () =
  let labels solve =
    let sink, events = Fsa_obs.Sink.memory () in
    ignore (Fsa_obs.Runtime.with_observation ~sink solve);
    move_labels (events ())
  in
  let inst = paper () in
  Alcotest.(check (list string))
    "Csr_improve" [ "I2'(h0,m1)" ]
    (labels (fun () -> Csr_improve.solve inst));
  Alcotest.(check (list string))
    "Full_improve"
    [
      "I1(H0 -> M0[0,0] in [0,0])";
      "I1(H0 -> M0[0,0] in [0,1])";
      "I1(H0 -> M1[0,0] in [0,0])";
      "I1(M0 -> H0[0,0] in [0,2])";
    ]
    (labels (fun () -> Full_improve.solve inst));
  Alcotest.(check (list string))
    "Border_improve" [ "I2(h0,m1)" ]
    (labels (fun () -> Border_improve.solve inst))

(* ------------------------------------------------------------------ *)
(* Indexed Solution vs naive list oracle (S5)                           *)

let naive_score ms =
  List.fold_left (fun acc (m : Cmatch.t) -> acc +. m.Cmatch.score) 0.0 ms

let on_frag ms side frag =
  List.filter (fun m -> Cmatch.frag_of m side = frag) ms

let naive_free inst ms side frag =
  let n = Fragment.length (Instance.fragment inst side frag) in
  let covered = Array.make n false in
  List.iter
    (fun m ->
      let s = Cmatch.site_of m side in
      for p = s.Site.lo to s.Site.hi do
        covered.(p) <- true
      done)
    (on_frag ms side frag);
  let acc = ref [] and start = ref (-1) in
  for p = 0 to n - 1 do
    if not covered.(p) then begin
      if !start < 0 then start := p
    end
    else if !start >= 0 then begin
      acc := Site.make !start (p - 1) :: !acc;
      start := -1
    end
  done;
  if !start >= 0 then acc := Site.make !start (n - 1) :: !acc;
  List.rev !acc

let solution_oracle_prop seed =
  let rng = Fsa_util.Rng.create seed in
  let inst = small_instance seed in
  let borders = Array.of_list (Border_improve.border_candidates inst) in
  let sol = ref (Solution.empty inst) in
  let ok = ref true in
  let random_site n =
    let lo = Fsa_util.Rng.int rng n in
    Site.make lo (lo + Fsa_util.Rng.int rng (n - lo))
  in
  let check_consistent () =
    let ms = Solution.matches !sol in
    (* The cached score is the exact fold over the master list. *)
    ok := !ok && Solution.score !sol = naive_score ms;
    ok := !ok && Solution.size !sol = List.length ms;
    ok := !ok && Result.is_ok (Solution.validate !sol);
    (* Every bucket equals the one a rebuild from the master list files. *)
    let rebuilt = Solution.unchecked_of_matches inst ms in
    List.iter
      (fun side ->
        for frag = 0 to Instance.fragment_count inst side - 1 do
          ok :=
            !ok
            && Solution.matches_on !sol side frag
               = Solution.matches_on rebuilt side frag;
          let here = on_frag ms side frag in
          ok :=
            !ok
            && Float.abs (Solution.contribution !sol side frag -. naive_score here)
               < 1e-9;
          ok := !ok && Solution.free_sites !sol side frag = naive_free inst ms side frag;
          let n = Fragment.length (Instance.fragment inst side frag) in
          for _ = 1 to 3 do
            let site = random_site n in
            let naive_hidden =
              List.exists (fun m -> Site.hides (Cmatch.site_of m side) site) here
            in
            ok := !ok && Solution.is_hidden !sol side frag site = naive_hidden
          done
        done)
      [ Species.H; Species.M ]
  in
  let add m = match Solution.add !sol m with Ok s -> sol := s | Error _ -> () in
  let prepare side frag site =
    match Solution.prepare !sol side frag site with
    | Some (s, _) -> sol := s
    | None -> ()
  in
  for _ = 1 to 25 do
    let full_side = if Fsa_util.Rng.bool rng then Species.H else Species.M in
    let other = Species.other full_side in
    let job = Fsa_util.Rng.int rng (Instance.fragment_count inst full_side) in
    let target = Fsa_util.Rng.int rng (Instance.fragment_count inst other) in
    let n = Fragment.length (Instance.fragment inst other target) in
    let site = random_site n in
    let border_sol =
      List.filter
        (fun m -> Cmatch.classify inst m = Some Cmatch.Border_match)
        (Solution.matches !sol)
    in
    (match Fsa_util.Rng.int rng 4 with
    | 0 -> add (Cmatch.full inst ~full_side job ~other_frag:target ~other_site:site)
    | 2 when Array.length borders > 0 ->
        add borders.(Fsa_util.Rng.int rng (Array.length borders))
    | 3 when border_sol <> [] ->
        (* A site through a border match's site on one of its fragments:
           covering the inner end shrinks the match, covering the outer
           end breaks the 2-island. *)
        let b = List.nth border_sol (Fsa_util.Rng.int rng (List.length border_sol)) in
        let frag = Cmatch.frag_of b full_side in
        let n = Fragment.length (Instance.fragment inst full_side frag) in
        let bs = Cmatch.site_of b full_side in
        let p = bs.Site.lo + Fsa_util.Rng.int rng (bs.Site.hi - bs.Site.lo + 1) in
        let lo = Fsa_util.Rng.int rng (p + 1) in
        let hi = p + Fsa_util.Rng.int rng (n - p) in
        prepare full_side frag (Site.make lo hi)
    | _ -> prepare other target site);
    check_consistent ()
  done;
  !ok

let test_solution_oracle_qcheck =
  QCheck.Test.make ~name:"indexed solution agrees with list oracle" ~count:200
    seed_gen solution_oracle_prop

(* ------------------------------------------------------------------ *)
(* Array-backed TPA / greedy vs the original list-backed code (S5)      *)

(* Verbatim ports of the pre-index implementations, kept as oracles. *)
let tpa_oracle t =
  let stack = ref [] in
  let job_value = Array.make (max (Isp.jobs t) 1) 0.0 in
  List.iter
    (fun (c : Isp.candidate) ->
      if c.profit > 0.0 then begin
        let overlap_value =
          let rec sum acc = function
            | ((c' : Isp.candidate), v) :: rest
              when c'.interval.Interval.hi >= c.interval.Interval.lo ->
                let acc = if c'.job = c.job then acc else acc +. v in
                sum acc rest
            | _ -> acc
          in
          sum 0.0 !stack
        in
        let value = c.profit -. overlap_value -. job_value.(c.job) in
        if value > 0.0 then begin
          stack := (c, value) :: !stack;
          job_value.(c.job) <- job_value.(c.job) +. value
        end
      end)
    (Isp.candidates t);
  let job_used = Array.make (max (Isp.jobs t) 1) false in
  let selected =
    List.fold_left
      (fun kept ((c : Isp.candidate), _v) ->
        let compatible =
          (not job_used.(c.job))
          && List.for_all
               (fun (k : Isp.candidate) -> Interval.disjoint k.interval c.interval)
               kept
        in
        if compatible then begin
          job_used.(c.job) <- true;
          c :: kept
        end
        else kept)
      [] !stack
  in
  (Isp.total_profit selected, selected)

let greedy_oracle t =
  let sorted =
    List.sort
      (fun (a : Isp.candidate) (b : Isp.candidate) -> compare b.profit a.profit)
      (List.filter (fun (c : Isp.candidate) -> c.profit > 0.0) (Isp.candidates t))
  in
  let job_used = Array.make (max (Isp.jobs t) 1) false in
  let selected =
    List.fold_left
      (fun kept (c : Isp.candidate) ->
        let ok =
          (not job_used.(c.job))
          && List.for_all
               (fun (k : Isp.candidate) -> Interval.disjoint k.interval c.interval)
               kept
        in
        if ok then begin
          job_used.(c.job) <- true;
          c :: kept
        end
        else kept)
      [] sorted
  in
  (Isp.total_profit selected, selected)

let random_isp seed =
  let rng = Fsa_util.Rng.create seed in
  let jobs = 1 + Fsa_util.Rng.int rng 8 in
  let candidates_per_job = 1 + Fsa_util.Rng.int rng 6 in
  Isp.random_instance rng ~jobs ~candidates_per_job ~span:40 ~max_len:8
    ~max_profit:10.0

let test_tpa_oracle_qcheck =
  QCheck.Test.make ~name:"array-backed tpa = list-backed tpa" ~count:300
    seed_gen (fun seed ->
      let t = random_isp seed in
      Isp.tpa t = tpa_oracle t)

let test_greedy_oracle_qcheck =
  QCheck.Test.make ~name:"bitset greedy = list-backed greedy" ~count:300
    seed_gen (fun seed ->
      let t = random_isp seed in
      Isp.greedy t = greedy_oracle t)

(* ------------------------------------------------------------------ *)
(* All-windows MS kernel vs per-window alignments (S5)                  *)

let kernel_prop seed =
  let inst = small_instance seed in
  let sigma = inst.Instance.sigma in
  let get = Scoring.get sigma in
  let a = Fragment.symbols (Instance.fragment inst Species.H 0) in
  let w = Fragment.symbols (Instance.fragment inst Species.M 0) in
  let lw = Array.length w in
  let fwd = Fsa_align.Region_align.ms_windows_fwd ~get a w in
  let rev = Fsa_align.Region_align.ms_windows_rev ~get a w in
  let ok = ref true in
  for lo = 0 to lw - 1 do
    for hi = lo to lw - 1 do
      let window = Array.sub w lo (hi - lo + 1) in
      (* Bit equality, not tolerance: the kernel must reproduce the exact
         floats of a fresh per-window DP. *)
      ok := !ok && fwd.((lo * lw) + hi) = Fsa_align.Region_align.p_score sigma a window;
      ok :=
        !ok
        && rev.((lo * lw) + hi)
           = Fsa_align.Region_align.p_score sigma a
               (Fsa_align.Region_align.reverse_word window)
    done
  done;
  !ok

let test_kernel_qcheck =
  QCheck.Test.make ~name:"window kernel bit-equal to per-window p_score"
    ~count:60 seed_gen kernel_prop

(* ------------------------------------------------------------------ *)
(* Bitset range operations vs per-bit model (S5)                        *)

let bitset_prop seed =
  let rng = Fsa_util.Rng.create seed in
  let n = 1 + Fsa_util.Rng.int rng 200 in
  let b = Fsa_util.Bitset.create n in
  let model = Array.make n false in
  let ok = ref true in
  for _ = 1 to 40 do
    let lo = Fsa_util.Rng.int rng n in
    let hi = Fsa_util.Rng.int rng n in
    if Fsa_util.Rng.bool rng then begin
      Fsa_util.Bitset.set_range b lo hi;
      for p = lo to hi do
        model.(p) <- true
      done
    end
    else begin
      let naive = ref false in
      for p = lo to hi do
        naive := !naive || model.(p)
      done;
      ok := !ok && Fsa_util.Bitset.any_in_range b lo hi = !naive
    end
  done;
  for p = 0 to n - 1 do
    ok := !ok && Fsa_util.Bitset.mem b p = model.(p)
  done;
  !ok

let test_bitset_qcheck =
  QCheck.Test.make ~name:"bitset range ops match per-bit model" ~count:200
    seed_gen bitset_prop

(* ------------------------------------------------------------------ *)
(* Scaling truncation loss (S2)                                         *)

(* The bound documented in Improve.with_scaling: truncating σ to multiples
   of u = εX/k costs any fixed solution less than k·u = εX of its score
   (and never gains, since truncation is a floor). *)
let truncation_loss_prop seed =
  let inst = small_instance seed in
  let sol = One_csr.four_approx inst in
  let x = Solution.score sol in
  if x <= 0.0 then true
  else begin
    let k = Float.max (float_of_int (Instance.max_matches inst)) 1.0 in
    let epsilon = 0.1 in
    let u = epsilon *. x /. k in
    let truncated =
      Instance.with_sigma inst
        (Scoring.truncate_to_multiples inst.Instance.sigma u)
    in
    let sol_t = Improve.rescore truncated sol in
    let loss = x -. Solution.score sol_t in
    loss >= -1e-9 && loss <= (k *. u) +. 1e-6
  end

let test_truncation_loss_qcheck =
  QCheck.Test.make ~name:"truncation loses less than k·u = εX" ~count:60
    seed_gen truncation_loss_prop

let test_scaled_paper_score () =
  (* On the paper example the ε = 0.05 scaled run loses nothing. *)
  check_float "scaled CSR_Improve score" 11.0
    (Solution.score (Csr_improve.solve_scaled ~epsilon:0.05 (paper ())))

(* ------------------------------------------------------------------ *)
(* tpa_fill consistency counters (S4)                                   *)

let test_tpa_fill_counters () =
  let reg = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
      ignore (Csr_improve.solve (paper ())));
  check_bool "tpa_fill ran" true
    (match Fsa_obs.Registry.counter_value reg "improve.tpa_fill_calls" with
    | Some v -> v > 0.0
    | None -> false);
  (* The two "cannot happen" branches must stay silent on a healthy run. *)
  List.iter
    (fun name ->
      check_bool name true
        (match Fsa_obs.Registry.counter_value reg name with
        | None -> true
        | Some v -> v = 0.0))
    [ "improve.tpa_fill_prepare_misses"; "improve.tpa_fill_add_errors" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ( "rounds",
        [
          Alcotest.test_case "zero improvements" `Quick
            test_rounds_zero_improvements;
          Alcotest.test_case "one improvement" `Quick test_rounds_one_improvement;
          Alcotest.test_case "cut by max_improvements" `Quick
            test_rounds_cut_by_max_improvements;
          Alcotest.test_case "negative min_gain rejected" `Quick
            test_negative_min_gain_rejected;
        ] );
      ( "scan",
        [
          Alcotest.test_case "resumes at the last winner" `Quick
            test_scan_resumes_at_winner;
          Alcotest.test_case "closing pass is one circle" `Quick
            test_scan_closing_pass_is_one_circle;
          Alcotest.test_case "wraps to an earlier attempt" `Quick
            test_scan_wraps_to_earlier_attempt;
          Alcotest.test_case "start modulo the list length" `Quick
            test_scan_start_modulo_length;
        ] );
      ( "labels",
        [
          Alcotest.test_case "forced on demand" `Quick test_labels_forced_on_demand;
          Alcotest.test_case "traced Move labels pinned" `Quick
            test_move_labels_pinned;
        ] );
      ( "solution",
        [ qtest test_solution_oracle_qcheck ] );
      ( "isp",
        [ qtest test_tpa_oracle_qcheck; qtest test_greedy_oracle_qcheck ] );
      ( "kernel", [ qtest test_kernel_qcheck ] );
      ( "bitset", [ qtest test_bitset_qcheck ] );
      ( "scaling",
        [
          qtest test_truncation_loss_qcheck;
          Alcotest.test_case "paper example scaled" `Quick test_scaled_paper_score;
        ] );
      ( "counters",
        [ Alcotest.test_case "tpa_fill counters" `Quick test_tpa_fill_counters ]
      );
    ]
