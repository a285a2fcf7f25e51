(* Resource-budget tests: the cooperative checkpoint mechanics (sticky
   tripping, nesting, partial construction outside the budget) and the
   budgeted solver entry points — every exceeded budget must still return
   a valid solution, and an unlimited budget must change nothing. *)

open Fsa_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let validate_ok what sol =
  match Fsa_csr.Solution.validate sol with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid partial solution: %s" what msg

let small_instance seed =
  let rng = Fsa_util.Rng.create seed in
  Fsa_csr.Instance.random_planted rng ~regions:8 ~h_fragments:4 ~m_fragments:4
    ~inversion_rate:0.2 ~noise_pairs:6

(* ------------------------------------------------------------------ *)
(* Checkpoint mechanics *)

let test_create_validation () =
  Alcotest.check_raises "negative probes"
    (Invalid_argument "Budget.create: negative probe budget") (fun () ->
      ignore (Budget.create ~probes:(-1) ()));
  (* Regression: a NaN wall_s made [Clock.now () > deadline] always false —
     a silently unlimited budget; negative limits were accepted too. *)
  let rejects what f =
    match f () with
    | (_ : Budget.t) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "NaN wall_s" (fun () -> Budget.create ~wall_s:Float.nan ());
  rejects "negative wall_s" (fun () -> Budget.create ~wall_s:(-1.0) ());
  (* Zero is a legitimate (instantly tripping) limit, not a misconfiguration. *)
  ignore (Budget.create ~wall_s:0.0 ())

let test_zero_probe_budget_trips_first_check () =
  let b = Budget.create ~probes:0 () in
  (match Budget.run b ~partial:(fun () -> "partial") (fun () ->
       Budget.check ();
       "done")
   with
  | Ok _ -> Alcotest.fail "zero-probe budget did not trip"
  | Error (`Budget_exceeded (p, reason)) ->
      Alcotest.(check string) "partial payload" "partial" p;
      check_bool "probes reason" true (reason = `Probes));
  check_bool "sticky exceeded" true (Budget.exceeded b = Some `Probes)

let test_unlimited_budget_never_trips () =
  let b = Budget.create () in
  let r =
    Budget.run b ~partial:(fun () -> -1) (fun () ->
        for _ = 1 to 10_000 do
          Budget.check ()
        done;
        42)
  in
  check_bool "completed" true (r = Ok 42);
  check_int "all probes counted" 10_000 (Budget.probes b);
  check_bool "not exceeded" true (Budget.exceeded b = None)

let test_sticky_budget_re_trips_without_work () =
  let b = Budget.create ~probes:5 () in
  (match Budget.run b ~partial:(fun () -> ()) (fun () ->
       while true do
         Budget.check ()
       done)
   with
  | Ok () -> Alcotest.fail "unbounded loop completed?"
  | Error (`Budget_exceeded ((), `Probes)) -> ()
  | Error (`Budget_exceeded ((), _)) -> Alcotest.fail "wrong reason");
  let probes_after_trip = Budget.probes b in
  (* A second stage under the same budget must fall through immediately:
     the sticky re-raise fires before any probe is counted. *)
  let stage2_ran = ref false in
  (match Budget.run b ~partial:(fun () -> ()) (fun () ->
       Budget.check ();
       stage2_ran := true)
   with
  | Ok () -> Alcotest.fail "tripped budget allowed a second stage"
  | Error (`Budget_exceeded ((), `Probes)) -> ()
  | Error (`Budget_exceeded ((), _)) -> Alcotest.fail "wrong sticky reason");
  check_bool "second stage did no work" false !stage2_ran;
  check_int "no extra probes counted" probes_after_trip (Budget.probes b)

let test_partial_runs_outside_budget () =
  let b = Budget.create ~probes:0 () in
  (* [partial] itself calls the checkpoint; it must not re-trip because
     [run] uninstalls the budget before building the partial. *)
  match Budget.run b
      ~partial:(fun () ->
        Budget.check ();
        check_bool "budget uninstalled in partial" false (Budget.installed ());
        "safe")
      (fun () ->
        Budget.check ();
        "done")
  with
  | Ok _ -> Alcotest.fail "zero-probe budget did not trip"
  | Error (`Budget_exceeded (p, _)) -> Alcotest.(check string) "partial" "safe" p

let test_budgets_nest_innermost_wins () =
  let outer = Budget.create ~probes:1_000 () in
  let inner = Budget.create ~probes:3 () in
  let r =
    Budget.run outer ~partial:(fun () -> -1) (fun () ->
        Budget.check ();
        let inner_result =
          Budget.run inner ~partial:(fun () -> -2) (fun () ->
              while true do
                Budget.check ()
              done;
              0)
        in
        (* The outer budget is live again and untripped. *)
        Budget.check ();
        match inner_result with
        | Error (`Budget_exceeded (-2, `Probes)) -> 7
        | _ -> -3)
  in
  check_bool "outer completed despite inner trip" true (r = Ok 7);
  check_bool "outer untripped" true (Budget.exceeded outer = None);
  check_int "outer saw only its own probes" 2 (Budget.probes outer)

let test_value () =
  check_int "ok payload" 3 (Budget.value (Ok 3));
  check_int "partial payload" 4 (Budget.value (Error (`Budget_exceeded (4, `Probes))))

(* ------------------------------------------------------------------ *)
(* Budgeted solver entry points: exceeded => valid partial; unlimited =>
   identical to the plain solver. *)

let score = Fsa_csr.Solution.score

let test_greedy_budgeted () =
  let inst = small_instance 11 in
  (match Fsa_csr.Greedy.solve_budgeted (Budget.create ~probes:0 ()) inst with
  | Ok _ -> Alcotest.fail "zero-probe greedy completed"
  | Error (`Budget_exceeded (partial, _)) ->
      validate_ok "greedy" partial;
      check_float "nothing committed yet" 0.0 (score partial));
  match Fsa_csr.Greedy.solve_budgeted (Budget.create ()) inst with
  | Ok sol ->
      check_float "unlimited greedy unchanged" (score (Fsa_csr.Greedy.solve inst))
        (score sol)
  | Error _ -> Alcotest.fail "unlimited greedy tripped"

let test_four_approx_budgeted () =
  let inst = small_instance 42 in
  (match Fsa_csr.One_csr.four_approx_budgeted (Budget.create ~probes:0 ()) inst with
  | Ok _ -> Alcotest.fail "zero-probe four_approx completed"
  | Error (`Budget_exceeded (partial, _)) -> validate_ok "four_approx" partial);
  match Fsa_csr.One_csr.four_approx_budgeted (Budget.create ()) inst with
  | Ok sol ->
      check_float "unlimited four_approx unchanged"
        (score (Fsa_csr.One_csr.four_approx inst))
        (score sol)
  | Error _ -> Alcotest.fail "unlimited four_approx tripped"

(* A mid-sized probe budget on the side-H/side-M pair: the partial must be
   the best side completed so far, which is still a valid solution. *)
let test_four_approx_partial_mid_run () =
  let inst = small_instance 99 in
  let unlimited = Budget.create () in
  (match Fsa_csr.One_csr.four_approx_budgeted unlimited inst with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unlimited run tripped");
  let total = Budget.probes unlimited in
  check_bool "instrumented loops probe" true (total > 0);
  (* Enough budget for roughly one side: tripping mid-run. *)
  match
    Fsa_csr.One_csr.four_approx_budgeted (Budget.create ~probes:(total / 2) ()) inst
  with
  | Ok _ -> () (* probe counts can shift with caching; completing is fine *)
  | Error (`Budget_exceeded (partial, _)) -> validate_ok "half-budget partial" partial

let test_csr_improve_budgeted () =
  let inst = small_instance 7 in
  (match Fsa_csr.Csr_improve.solve_budgeted (Budget.create ~probes:0 ()) inst with
  | Ok _ -> Alcotest.fail "zero-probe csr_improve completed"
  | Error (`Budget_exceeded ((partial, _stats), _)) ->
      validate_ok "csr_improve" partial);
  match Fsa_csr.Csr_improve.solve_budgeted (Budget.create ()) inst with
  | Ok (sol, _) ->
      check_float "unlimited csr_improve unchanged"
        (score (fst (Fsa_csr.Csr_improve.solve inst)))
        (score sol)
  | Error _ -> Alcotest.fail "unlimited csr_improve tripped"

let test_full_improve_budgeted () =
  let inst = small_instance 3 in
  (match Fsa_csr.Full_improve.solve_budgeted (Budget.create ~probes:0 ()) inst with
  | Ok _ -> Alcotest.fail "zero-probe full_improve completed"
  | Error (`Budget_exceeded ((partial, _), _)) -> validate_ok "full_improve" partial);
  match Fsa_csr.Full_improve.solve_budgeted (Budget.create ()) inst with
  | Ok (sol, _) ->
      check_float "unlimited full_improve unchanged"
        (score (fst (Fsa_csr.Full_improve.solve inst)))
        (score sol)
  | Error _ -> Alcotest.fail "unlimited full_improve tripped"

let tiny_instance () =
  let rng = Fsa_util.Rng.create 5 in
  Fsa_csr.Instance.random_planted rng ~regions:4 ~h_fragments:2 ~m_fragments:2
    ~inversion_rate:0.0 ~noise_pairs:2

let test_exact_budgeted () =
  let inst = tiny_instance () in
  (match Fsa_csr.Exact.solve_budgeted (Budget.create ~probes:0 ()) inst with
  | Ok _ -> Alcotest.fail "zero-probe exact completed"
  | Error (`Budget_exceeded ((s, _, _), _)) ->
      check_bool "nothing evaluated" true (s = Float.neg_infinity));
  match Fsa_csr.Exact.solve_budgeted (Budget.create ()) inst with
  | Ok (s, _, _) ->
      let s', _, _ = Fsa_csr.Exact.solve_exn inst in
      check_float "unlimited exact unchanged" s' s
  | Error _ -> Alcotest.fail "unlimited exact tripped"

(* Any budget-limited solution is at most the optimum: a partial result
   stays a lower bound, never an overclaim. *)
let test_partial_bounded_by_exact () =
  let inst = tiny_instance () in
  let opt = Fsa_csr.Exact.solve_score inst in
  List.iter
    (fun probes ->
      let sol =
        Budget.value
          (Fsa_csr.Csr_improve.solve_budgeted (Budget.create ~probes ()) inst)
      in
      validate_ok "bounded partial" (fst sol);
      check_bool
        (Printf.sprintf "score under %d probes <= optimum" probes)
        true
        (score (fst sol) <= opt +. 1e-9))
    [ 0; 10; 100; 1_000 ]

(* ------------------------------------------------------------------ *)
(* Acceptance: a large sparse-tier instance under a tight wall budget
   terminates early with a typed, oracle-valid partial. *)

let test_sparse_wall_budget_partial () =
  let rng = Fsa_util.Rng.create 2024 in
  let inst =
    Fsa_csr.Instance.random_sparse rng ~regions:128 ~h_fragments:32
      ~m_fragments:32 ~inversion_rate:0.15 ~noise_pairs:64 ~noise_span:6
  in
  let budget = Budget.create ~wall_s:1e-5 () in
  match Fsa_csr.One_csr.four_approx_budgeted budget inst with
  | Ok _ -> Alcotest.fail "128r/32f solve finished inside 10us?"
  | Error (`Budget_exceeded (partial, reason)) ->
      check_bool "wall-clock reason" true (reason = `Wall_clock);
      validate_ok "sparse wall-budget partial" partial;
      check_bool "budget marked exceeded" true
        (Budget.exceeded budget = Some `Wall_clock)

(* The budget.exceeded counter stream surfaces trips in --stats. *)
let test_trip_counters () =
  let r = Registry.create () in
  Runtime.with_observation ~registry:r (fun () ->
      ignore
        (Fsa_csr.Greedy.solve_budgeted
           (Budget.create ~probes:0 ())
           (small_instance 1)));
  check_bool "budget.exceeded counted" true
    (Registry.counter_value r "budget.exceeded" = Some 1.0);
  check_bool "reason-tagged counter" true
    (Registry.counter_value r "budget.exceeded.probes" = Some 1.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "budget"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "zero probes trips first check" `Quick
            test_zero_probe_budget_trips_first_check;
          Alcotest.test_case "unlimited never trips" `Quick
            test_unlimited_budget_never_trips;
          Alcotest.test_case "sticky re-trip without work" `Quick
            test_sticky_budget_re_trips_without_work;
          Alcotest.test_case "partial runs outside budget" `Quick
            test_partial_runs_outside_budget;
          Alcotest.test_case "nesting, innermost wins" `Quick
            test_budgets_nest_innermost_wins;
          Alcotest.test_case "value" `Quick test_value;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "greedy" `Quick test_greedy_budgeted;
          Alcotest.test_case "four_approx" `Quick test_four_approx_budgeted;
          Alcotest.test_case "four_approx mid-run partial" `Quick
            test_four_approx_partial_mid_run;
          Alcotest.test_case "csr_improve" `Quick test_csr_improve_budgeted;
          Alcotest.test_case "full_improve" `Quick test_full_improve_budgeted;
          Alcotest.test_case "exact" `Quick test_exact_budgeted;
          Alcotest.test_case "partial bounded by exact" `Quick
            test_partial_bounded_by_exact;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "sparse 128r wall budget" `Quick
            test_sparse_wall_budget_partial;
          Alcotest.test_case "trip counters" `Quick test_trip_counters;
        ] );
    ]
