(* Tests for Fsa_intervals: interval algebra, weighted interval scheduling,
   the ISP and the two-phase algorithm (ratio-2 guarantee checked against
   the exact optimum on random instances). *)

open Fsa_intervals

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

let interval_gen =
  QCheck.(
    map (fun (a, b) -> Interval.make (min a b) (max a b)) (pair (int_bound 30) (int_bound 30)))

(* ------------------------------------------------------------------ *)
(* Interval                                                             *)

let test_interval_basics () =
  let i = Interval.make 2 5 in
  check_int "length" 4 (Interval.length i);
  check_bool "overlaps" true (Interval.overlaps i (Interval.make 5 9));
  check_bool "disjoint" true (Interval.disjoint i (Interval.make 6 9));
  check_bool "touches adjacent" true (Interval.touches i (Interval.make 6 9));
  check_bool "contains" true (Interval.contains i (Interval.make 3 4));
  check_bool "hull" true (Interval.equal (Interval.hull i (Interval.make 8 9)) (Interval.make 2 9));
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 3 2))

let test_interval_intersect () =
  check_bool "some" true
    (Interval.intersect (Interval.make 0 5) (Interval.make 3 9) = Some (Interval.make 3 5));
  check_bool "none" true (Interval.intersect (Interval.make 0 2) (Interval.make 3 9) = None)

let test_interval_overlap_symmetric_qcheck =
  QCheck.Test.make ~name:"overlap is symmetric" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) -> Interval.overlaps a b = Interval.overlaps b a)

let test_interval_overlap_pointwise_qcheck =
  QCheck.Test.make ~name:"overlap agrees with pointwise test" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let pointwise = ref false in
      for p = a.Interval.lo to a.Interval.hi do
        if p >= b.Interval.lo && p <= b.Interval.hi then pointwise := true
      done;
      Interval.overlaps a b = !pointwise)

(* The remaining operations against a point-set model of [0, 31]. *)
let points i = List.init (Interval.length i) (fun k -> i.Interval.lo + k)
let mem p i = p >= i.Interval.lo && p <= i.Interval.hi

let test_interval_intersect_model_qcheck =
  QCheck.Test.make ~name:"intersect agrees with pointwise test" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let common = List.filter (fun p -> mem p b) (points a) in
      match Interval.intersect a b with
      | None -> common = []
      | Some i -> points i = common)

let test_interval_contains_model_qcheck =
  QCheck.Test.make ~name:"contains agrees with pointwise test" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) -> Interval.contains a b = List.for_all (fun p -> mem p a) (points b))

let test_interval_touches_model_qcheck =
  QCheck.Test.make ~name:"touches agrees with pointwise test" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let near = List.exists (fun p -> mem (p - 1) b || mem p b || mem (p + 1) b) (points a) in
      Interval.touches a b = near && Interval.disjoint a b = not (Interval.overlaps a b))

let test_interval_hull_qcheck =
  QCheck.Test.make ~name:"hull is the least cover" ~count:300
    QCheck.(triple interval_gen interval_gen interval_gen)
    (fun (a, b, c) ->
      let h = Interval.hull a b in
      Interval.contains h a && Interval.contains h b
      && ((not (Interval.contains c a && Interval.contains c b)) || Interval.contains c h))

let test_interval_orders_qcheck =
  QCheck.Test.make ~name:"compare orders (lo, hi) pairs" ~count:300
    QCheck.(pair interval_gen interval_gen)
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      let lo_hi i = (i.Interval.lo, i.Interval.hi) and hi_lo i = (i.Interval.hi, i.Interval.lo) in
      sign (Interval.compare a b) = sign (Stdlib.compare (lo_hi a) (lo_hi b))
      && sign (Interval.compare_by_hi a b) = sign (Stdlib.compare (hi_lo a) (hi_lo b))
      && Interval.equal a b = (Interval.compare a b = 0))

(* ------------------------------------------------------------------ *)
(* Wis                                                                  *)

let exhaustive_wis items =
  (* Reference: try all subsets. *)
  let arr = Array.of_list items in
  let n = Array.length arr in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then chosen := arr.(i) :: !chosen
    done;
    let rec disjoint = function
      | [] -> true
      | x :: rest ->
          List.for_all (fun y -> Interval.disjoint x.Wis.interval y.Wis.interval) rest
          && disjoint rest
    in
    if disjoint !chosen then begin
      let v = List.fold_left (fun acc x -> acc +. x.Wis.profit) 0.0 !chosen in
      if v > !best then best := v
    end
  done;
  !best

let wis_items_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 10)
      (map
         (fun ((a, b), p) ->
           { Wis.interval = Interval.make (min a b) (max a b); profit = p })
         (pair (pair (int_bound 20) (int_bound 20)) (map (fun x -> Float.abs x) (float_range 0.0 10.0)))))

let test_wis_exact_qcheck =
  QCheck.Test.make ~name:"WIS DP equals exhaustive optimum" ~count:200 wis_items_gen
    (fun items ->
      let dp, sel = Wis.solve items in
      let brute = exhaustive_wis items in
      let rec disjoint = function
        | [] -> true
        | x :: rest ->
            List.for_all (fun y -> Interval.disjoint x.Wis.interval y.Wis.interval) rest
            && disjoint rest
      in
      Float.abs (dp -. brute) < 1e-9 && disjoint sel
      && Float.abs (List.fold_left (fun a x -> a +. x.Wis.profit) 0.0 sel -. dp) < 1e-9)

let test_wis_known () =
  let items =
    [
      { Wis.interval = Interval.make 0 3; profit = 3.0 };
      { Wis.interval = Interval.make 4 7; profit = 3.0 };
      { Wis.interval = Interval.make 2 5; profit = 5.0 };
    ]
  in
  let v, _ = Wis.solve items in
  check_float "two sides beat middle" 6.0 v

let test_wis_greedy_suboptimal () =
  let items =
    [
      { Wis.interval = Interval.make 0 3; profit = 3.0 };
      { Wis.interval = Interval.make 4 7; profit = 3.0 };
      { Wis.interval = Interval.make 2 5; profit = 5.0 };
    ]
  in
  let v, _ = Wis.greedy_by_profit items in
  check_float "greedy takes the middle" 5.0 v

(* ------------------------------------------------------------------ *)
(* Isp                                                                  *)

let isp_gen =
  QCheck.make
    ~print:(fun (seed, jobs, cpj) -> Printf.sprintf "seed=%d jobs=%d cpj=%d" seed jobs cpj)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 1 5) (int_range 1 5))

let instance_of (seed, jobs, cpj) =
  let rng = Fsa_util.Rng.create seed in
  Isp.random_instance rng ~jobs ~candidates_per_job:cpj ~span:25 ~max_len:8
    ~max_profit:10.0

let exact_exn ?node_limit isp =
  match Isp.exact ?node_limit isp with
  | Ok r -> r
  | Error (`Node_limit n) -> Alcotest.failf "unexpected node limit (%d)" n
  | Error (`Budget_exceeded _) -> Alcotest.fail "unexpected budget trip" 

let test_isp_tpa_feasible_qcheck =
  QCheck.Test.make ~name:"TPA output is feasible" ~count:300 isp_gen (fun params ->
      let isp = instance_of params in
      let v, sel = Isp.tpa isp in
      Isp.is_feasible isp sel && Float.abs (v -. Isp.total_profit sel) < 1e-9)

let test_isp_exact_feasible_qcheck =
  QCheck.Test.make ~name:"exact output is feasible and beats TPA and greedy" ~count:200
    isp_gen (fun params ->
      let isp = instance_of params in
      let opt, sel = exact_exn isp in
      let tpa, _ = Isp.tpa isp in
      let gr, _ = Isp.greedy isp in
      Isp.is_feasible isp sel && opt >= tpa -. 1e-9 && opt >= gr -. 1e-9)

let test_isp_tpa_ratio2_qcheck =
  QCheck.Test.make ~name:"TPA is a 2-approximation" ~count:300 isp_gen (fun params ->
      let isp = instance_of params in
      let opt, _ = exact_exn isp in
      let tpa, _ = Isp.tpa isp in
      tpa *. 2.0 >= opt -. 1e-9)

let test_isp_upper_bound_qcheck =
  QCheck.Test.make ~name:"WIS relaxation bounds the optimum" ~count:200 isp_gen
    (fun params ->
      let isp = instance_of params in
      let opt, _ = exact_exn isp in
      Isp.upper_bound isp >= opt -. 1e-9)

let test_isp_tpa_tight_family () =
  (* The classic bait: one big interval worth w+eps versus two small ones
     worth w each, all same job? No - distinct jobs so both smalls count. *)
  let cands =
    [
      { Isp.job = 0; interval = Interval.make 0 9; profit = 10.0 };
      { Isp.job = 1; interval = Interval.make 0 4; profit = 6.0 };
      { Isp.job = 2; interval = Interval.make 5 9; profit = 6.0 };
    ]
  in
  let isp = Isp.create ~jobs:3 cands in
  let opt, _ = exact_exn isp in
  check_float "optimum takes the two smalls" 12.0 opt;
  let tpa, _ = Isp.tpa isp in
  check_bool "TPA within factor 2" true (tpa *. 2.0 >= opt)

let test_isp_job_constraint () =
  (* Same job twice: only one candidate may be picked even if disjoint. *)
  let cands =
    [
      { Isp.job = 0; interval = Interval.make 0 1; profit = 5.0 };
      { Isp.job = 0; interval = Interval.make 10 11; profit = 5.0 };
    ]
  in
  let isp = Isp.create ~jobs:1 cands in
  let opt, sel = exact_exn isp in
  check_float "only one" 5.0 opt;
  check_int "selection size" 1 (List.length sel)

let test_isp_negative_profit_ignored () =
  let cands = [ { Isp.job = 0; interval = Interval.make 0 1; profit = -5.0 } ] in
  let isp = Isp.create ~jobs:1 cands in
  let opt, sel = exact_exn isp in
  check_float "nothing selected" 0.0 opt;
  check_int "empty" 0 (List.length sel);
  let tpa, tsel = Isp.tpa isp in
  check_float "tpa nothing" 0.0 tpa;
  check_int "tpa empty" 0 (List.length tsel)

let test_isp_bad_job_rejected () =
  Alcotest.check_raises "job range"
    (Invalid_argument "Isp.create: candidate job out of range") (fun () ->
      ignore (Isp.create ~jobs:1 [ { Isp.job = 1; interval = Interval.make 0 1; profit = 1.0 } ]))

let test_isp_feasibility_detects_overlap () =
  let c1 = { Isp.job = 0; interval = Interval.make 0 5; profit = 1.0 } in
  let c2 = { Isp.job = 1; interval = Interval.make 5 9; profit = 1.0 } in
  let isp = Isp.create ~jobs:2 [ c1; c2 ] in
  check_bool "overlapping selection infeasible" false (Isp.is_feasible isp [ c1; c2 ])

let test_isp_node_limit_typed () =
  (* A tiny limit must yield a typed error, not an exception... *)
  let isp = instance_of (42, 5, 5) in
  (match Isp.exact ~node_limit:3 isp with
  | Error (`Node_limit 3) -> ()
  | Error (`Node_limit n) -> Alcotest.failf "wrong limit reported: %d" n
  | Error (`Budget_exceeded _) -> Alcotest.fail "no budget installed here"
  | Ok _ -> Alcotest.fail "limit of 3 nodes cannot finish this instance");
  (* ... and the degrading wrapper must still return a feasible selection
     (TPA's, at that point). *)
  let v, sel = Isp.exact_or_tpa ~node_limit:3 isp in
  check_bool "fallback selection feasible" true (Isp.is_feasible isp sel);
  let tv, tsel = Isp.tpa isp in
  check_float "fallback value is TPA's" tv v;
  check_int "fallback selection is TPA's" (List.length tsel) (List.length sel)

(* Alcotest cuts a test name to 80 columns less the longest group name
   here ("interval_ops"), so renaming that group changes how the long
   "isp" names print. *)
let () =
  Alcotest.run "fsa_intervals"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "intersect" `Quick test_interval_intersect;
          qtest test_interval_overlap_symmetric_qcheck;
          qtest test_interval_overlap_pointwise_qcheck;
        ] );
      ( "interval_ops",
        [
          qtest test_interval_intersect_model_qcheck;
          qtest test_interval_contains_model_qcheck;
          qtest test_interval_touches_model_qcheck;
          qtest test_interval_hull_qcheck;
          qtest test_interval_orders_qcheck;
        ] );
      ( "wis",
        [
          qtest test_wis_exact_qcheck;
          Alcotest.test_case "known instance" `Quick test_wis_known;
          Alcotest.test_case "greedy is fooled" `Quick test_wis_greedy_suboptimal;
        ] );
      ( "isp",
        [
          qtest test_isp_tpa_feasible_qcheck;
          qtest test_isp_exact_feasible_qcheck;
          qtest test_isp_tpa_ratio2_qcheck;
          qtest test_isp_upper_bound_qcheck;
          Alcotest.test_case "bait family" `Quick test_isp_tpa_tight_family;
          Alcotest.test_case "job constraint" `Quick test_isp_job_constraint;
          Alcotest.test_case "negative profits" `Quick test_isp_negative_profit_ignored;
          Alcotest.test_case "bad job rejected" `Quick test_isp_bad_job_rejected;
          Alcotest.test_case "feasibility check" `Quick test_isp_feasibility_detects_overlap;
          Alcotest.test_case "node limit typed" `Quick test_isp_node_limit_typed;
        ] );
    ]
