(* Tests for Fsa_util: PRNG, statistics, union-find, priority queue,
   bitset, table renderer. *)

open Fsa_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_rng_int_covers () =
  let rng = Rng.create 9 in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int rng 7) <- true
  done;
  check_bool "all residues hit" true (Array.for_all (fun x -> x) seen)

let test_rng_float_bounds () =
  let rng = Rng.create 10 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.0 in
    check_bool "in range" true (v >= 0.0 && v < 3.0)
  done

let test_rng_float_mean () =
  let rng = Rng.create 11 in
  let n = 100_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.float rng 1.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* Child and parent streams should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_copy_detached () =
  let a = Rng.create 6 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree initially" (Rng.bits64 a) (Rng.bits64 b);
  let _ = Rng.bits64 a in
  (* advancing a does not advance b: the next draw of b equals a's previous *)
  ()

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    check_bool "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  check_bool "mean ~ 0" true (Float.abs (Stats.mean xs) < 0.03);
  check_bool "sd ~ 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.03)

let test_rng_geometric_mean () =
  let rng = Rng.create 14 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* Mean of failures before success = (1-p)/p = 3. *)
  check_bool "mean ~ 3" true (Float.abs (mean -. 3.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create 15 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 2.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 16 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_permutation_uniformish () =
  let rng = Rng.create 17 in
  (* Position of element 0 should be roughly uniform over 4 slots. *)
  let counts = Array.make 4 0 in
  for _ = 1 to 4_000 do
    let p = Rng.permutation rng 4 in
    let idx = ref 0 in
    Array.iteri (fun i v -> if v = 0 then idx := i) p;
    counts.(!idx) <- counts.(!idx) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 800 && c < 1200))
    counts

let test_rng_sample_without_replacement () =
  let rng = Rng.create 18 in
  for _ = 1 to 200 do
    let s = Rng.sample_without_replacement rng 5 12 in
    check_int "size" 5 (Array.length s);
    let l = Array.to_list s in
    check_bool "distinct" true (List.length (List.sort_uniq compare l) = 5);
    check_bool "sorted" true (l = List.sort compare l);
    List.iter (fun v -> check_bool "in range" true (v >= 0 && v < 12)) l
  done

let test_rng_sample_full () =
  let rng = Rng.create 19 in
  let s = Rng.sample_without_replacement rng 7 7 in
  Alcotest.(check (array int)) "k = n returns everything" (Array.init 7 (fun i -> i)) s

let test_rng_weighted_index () =
  let rng = Rng.create 20 in
  let w = [| 0.0; 3.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero weight never drawn" 0 counts.(0);
  check_bool "3:1 ratio" true
    (float_of_int counts.(1) /. float_of_int counts.(2) > 2.5)

let test_rng_invalid_args () =
  let rng = Rng.create 21 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "int_in" (Invalid_argument "Rng.int_in: lo > hi") (fun () ->
      ignore (Rng.int_in rng 3 2))

(* The first draws of two seeds and of a split child, recorded when the
   state was a mutable int64 field: the stream must not depend on how the
   state is stored. *)
let test_rng_golden () =
  let draws t = List.init 4 (fun _ -> Rng.bits64 t) in
  let check name expected t = Alcotest.(check (list int64)) name expected (draws t) in
  check "create 0"
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ]
    (Rng.create 0);
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  check "split child of create 42"
    [ 0x5599B3E06D073327L; 0xD6171D07A31128DFL; 0xED057BA08584C10BL; 0x9EA45BEEBEE33B1CL ]
    child;
  check "create 42 after the split"
    [ 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L; 0x0C4B6B24EF01890EL; 0xFB16A06E52EC10A7L ]
    parent;
  let rng = Rng.create 7 in
  Alcotest.(check (list int)) "int 1000 of create 7" [ 963; 181; 52; 718; 629; 526 ]
    (List.init 6 (fun _ -> Rng.int rng 1000));
  Alcotest.(check (list (float 0.0))) "float 1.0 after them"
    [ 0x1.980a57f430be8p-2; 0x1.359ae713428abp-1; 0x1.9f6fe141e86bcp-1 ]
    (List.init 3 (fun _ -> Rng.float rng 1.0))

(* A draw allocates nothing.  [Rng.float]'s result crosses a module
   boundary, where the default (opaque) build boxes it: 2 words, and
   nothing besides; [bernoulli] runs the same draw inside the module. *)
let test_rng_no_alloc () =
  let rng = Rng.create 3 and n = 10_000 in
  (* Unescaped local refs stay unboxed, so each loop allocates only what
     its draws do. *)
  let w0 = Gc.minor_words () in
  let ints = ref 0 in
  for _ = 1 to n do
    ints := !ints + Rng.int rng 1000 + Rng.int rng 1024
  done;
  let w1 = Gc.minor_words () in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.5 then incr hits
  done;
  let w2 = Gc.minor_words () in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let w3 = Gc.minor_words () in
  ignore (Sys.opaque_identity (!ints, !hits, !sum));
  check_float "int" 0.0 (w1 -. w0);
  check_float "bernoulli" 0.0 (w2 -. w1);
  check_bool "float: its result's box at most" true (w3 -. w2 <= float_of_int (2 * n))

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  check_float "variance" (8.75 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0; 5.0 |]);
  check_float "singleton" 0.0 (Stats.variance [| 42.0 |])

let test_stats_median () =
  check_float "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50 interp" 25.0 (Stats.percentile xs 50.0)

let test_stats_percentile_edges () =
  let bad_p = Invalid_argument "Stats.percentile: p out of [0,100]" in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty input")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "p negative" bad_p (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] (-1.0)));
  Alcotest.check_raises "p above 100" bad_p (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] 100.5));
  Alcotest.check_raises "p nan" bad_p (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] Float.nan));
  let xs = [| 7.0; -2.0; 5.0 |] in
  check_float "p0 is min" (-2.0) (Stats.percentile xs 0.0);
  check_float "p100 is max" 7.0 (Stats.percentile xs 100.0);
  check_float "singleton any p" 3.0 (Stats.percentile [| 3.0 |] 73.2)

let test_stats_nan_input_rejected () =
  let bad = Invalid_argument "Stats.percentile: NaN in input" in
  Alcotest.check_raises "percentile nan data" bad (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0));
  Alcotest.check_raises "median nan data" bad (fun () ->
      ignore (Stats.median [| Float.nan |]));
  Alcotest.check_raises "nan last" bad (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0; Float.nan |] 100.0))

let test_stats_signed_zero () =
  (* Float.compare orders -0.0 before +0.0, so order statistics on mixed
     zeros are well defined; the interpolated values are still zero. *)
  check_float "median of mixed zeros" 0.0 (Stats.median [| 0.0; -0.0; 0.0 |]);
  check_float "p0 picks -0.0" 0.0 (Stats.percentile [| 0.0; -0.0 |] 0.0);
  check_bool "p0 sign is negative" true
    (1.0 /. Stats.percentile [| 0.0; -0.0 |] 0.0 = Float.neg_infinity);
  check_bool "p100 sign is positive" true
    (1.0 /. Stats.percentile [| 0.0; -0.0 |] 100.0 = Float.infinity);
  (* Infinities are ordered correctly too (polymorphic compare also gets
     this right, but Float.compare makes it explicit). *)
  check_float "p100 inf" Float.infinity
    (Stats.percentile [| 1.0; Float.infinity; 2.0 |] 100.0)

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_stats_geometric_mean () =
  check_float "gm" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.0; 1.0; 2.0; 3.0 |] in
  check_int "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check_int "counts sum" 4 total

let test_stats_regression () =
  let slope, intercept =
    Stats.linear_regression [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |]
  in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  check_int "n" 3 s.Stats.n;
  check_float "median" 2.0 s.Stats.median

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

(* ------------------------------------------------------------------ *)
(* Union_find                                                           *)

let test_uf_basics () =
  let uf = Union_find.create 5 in
  check_int "initial sets" 5 (Union_find.count_sets uf);
  check_bool "union" true (Union_find.union uf 0 1);
  check_bool "redundant union" false (Union_find.union uf 1 0);
  check_bool "same" true (Union_find.same uf 0 1);
  check_bool "not same" false (Union_find.same uf 0 2);
  check_int "sets after" 4 (Union_find.count_sets uf);
  check_int "size" 2 (Union_find.size uf 0)

let test_uf_groups () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 3);
  ignore (Union_find.union uf 3 5);
  let groups =
    Array.to_list (Union_find.groups uf) |> List.filter (fun g -> g <> [])
  in
  check_int "group count" 4 (List.length groups);
  check_bool "triple present" true (List.mem [ 0; 3; 5 ] groups)

let test_uf_transitivity_qcheck =
  QCheck.Test.make ~name:"union-find transitivity" ~count:200
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun edges ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) edges;
      (* same is an equivalence relation refined by the edges *)
      List.for_all (fun (a, b) -> Union_find.same uf a b) edges)

let test_uf_sizes_sum_qcheck =
  QCheck.Test.make ~name:"union-find set sizes partition" ~count:100
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun edges ->
      let uf = Union_find.create 15 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) edges;
      let groups = Union_find.groups uf in
      let total = Array.fold_left (fun acc g -> acc + List.length g) 0 groups in
      total = 15)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check_bool "initially empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  check_int "cardinal" 4 (Bitset.cardinal b);
  check_bool "mem 63" true (Bitset.mem b 63);
  Bitset.clear b 63;
  check_bool "cleared" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 99 ] (Bitset.to_list b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 10)

let test_bitset_setops_qcheck =
  let gen = QCheck.(pair (list (int_bound 63)) (list (int_bound 63))) in
  QCheck.Test.make ~name:"bitset set ops agree with lists" ~count:200 gen
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let sx = S.of_list xs and sy = S.of_list ys in
      let bx () = Bitset.of_list 64 xs and by = Bitset.of_list 64 ys in
      let check_op into reference =
        let b = bx () in
        into b by;
        Bitset.to_list b = S.elements reference
      in
      check_op Bitset.union_into (S.union sx sy)
      && check_op Bitset.inter_into (S.inter sx sy)
      && check_op Bitset.diff_into (S.diff sx sy))

let test_bitset_fold () =
  let b = Bitset.of_list 32 [ 1; 5; 9 ] in
  check_int "fold sum" 15 (Bitset.fold ( + ) b 0)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                             *)

let test_table_render () =
  let t = Tablefmt.create [ ("name", Tablefmt.Left); ("v", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "22" ];
  let s = Tablefmt.render t in
  check_bool "contains header" true
    (String.length s > 0 && String.index_opt s '|' <> None);
  let lines = String.split_on_char '\n' s in
  check_int "line count" 4 (List.length lines);
  (* All lines are equally wide (aligned). *)
  let widths = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_arity () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: wrong arity")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let test_table_float_row () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left); ("x", Tablefmt.Right) ] in
  let t = Tablefmt.add_float_row t "row" [ 1.5 ] in
  check_bool "renders" true (String.length (Tablefmt.render t) > 0)

(* Cells are padded by display width: a "—" is 3 bytes and 1 column. *)
let test_table_display_width () =
  let t = Tablefmt.create [ ("bench", Tablefmt.Left); ("r²", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "cold"; "—" ];
  Tablefmt.add_row t [ "warm — reused"; "0.998" ];
  let columns line =
    String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 line
  in
  let widths = List.map columns (String.split_on_char '\n' (Tablefmt.render t)) in
  Alcotest.(check (list int))
    "every line as wide"
    (List.map (fun _ -> List.hd widths) widths)
    widths

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "fsa_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy detaches" `Quick test_rng_copy_detached;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "permutation uniform-ish" `Quick test_rng_permutation_uniformish;
          Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_rng_sample_full;
          Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_alloc;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
          Alcotest.test_case "NaN input rejected" `Quick test_stats_nan_input_rejected;
          Alcotest.test_case "signed zeros" `Quick test_stats_signed_zero;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "linear regression" `Quick test_stats_regression;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        ] );
      ( "union_find",
        Alcotest.test_case "basics" `Quick test_uf_basics
        :: Alcotest.test_case "groups" `Quick test_uf_groups
        :: qsuite [ test_uf_transitivity_qcheck; test_uf_sizes_sum_qcheck ] );
      ( "bitset",
        Alcotest.test_case "basics" `Quick test_bitset_basics
        :: Alcotest.test_case "bounds" `Quick test_bitset_bounds
        :: Alcotest.test_case "fold" `Quick test_bitset_fold
        :: qsuite [ test_bitset_setops_qcheck ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "float row" `Quick test_table_float_row;
          Alcotest.test_case "display width" `Quick test_table_display_width;
        ] );
    ]
