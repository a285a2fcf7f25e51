(* Tests for the admissible match-score bound (Bound), the pruning switch,
   and the per-instance memo behind Cmatch.

   The load-bearing properties: the bound dominates the MS of every site in
   both orientations on adversarial instances (admissibility), solver
   outputs are bit-identical with pruning on and off, and one instance
   never rebuilds the same site table twice. *)

open Fsa_csr
module Rng = Fsa_util.Rng
module Gen = Fsa_check.Gen
module Site = Fsa_seq.Site

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t
let seed_gen = QCheck.(int_bound 1_000_000)

(* Run [f] with pruning forced to [on], restoring the ambient setting. *)
let with_pruning on f =
  let was = Bound.enabled () in
  Fun.protect
    ~finally:(fun () -> Bound.set_enabled was)
    (fun () ->
      Bound.set_enabled on;
      f ())

(* ------------------------------------------------------------------ *)
(* Admissibility: bound >= MS for every site, both orientations, on the
   degenerate-corner generator (all-ambiguous alphabets, palindromes,
   reversed duplicates) and on planted instances. *)

let max_ms inst ~full_side idx ~other_frag =
  let host =
    Instance.fragment inst (Species.other full_side) other_frag
  in
  let tbl = Cmatch.full_table inst ~full_side idx ~other_frag in
  List.fold_left
    (fun acc (s : Fsa_seq.Site.t) ->
      Float.max acc (fst (Cmatch.table_ms tbl ~lo:s.Fsa_seq.Site.lo ~hi:s.Fsa_seq.Site.hi)))
    0.0
    (Fsa_seq.Site.all_subsites (Fsa_seq.Fragment.length host))

let admissible_on inst =
  List.for_all
    (fun side ->
      let ok = ref true in
      for idx = 0 to Instance.fragment_count inst side - 1 do
        for other = 0 to Instance.fragment_count inst (Species.other side) - 1 do
          let b = Bound.ms_bound inst ~full_side:side idx ~other_frag:other in
          let ms = max_ms inst ~full_side:side idx ~other_frag:other in
          if not (b >= ms) then ok := false
        done
      done;
      !ok)
    [ Species.H; Species.M ]

let admissible_gen_prop seed =
  admissible_on (Gen.instance (Rng.create seed))

let admissible_planted_prop seed =
  let rng = Rng.create seed in
  admissible_on
    (Instance.random_planted rng ~regions:10 ~h_fragments:3 ~m_fragments:4
       ~inversion_rate:0.4 ~noise_pairs:8)

let admissible_sparse_prop seed =
  let rng = Rng.create seed in
  admissible_on
    (Instance.random_sparse rng ~regions:16 ~h_fragments:4 ~m_fragments:4
       ~inversion_rate:0.3 ~noise_pairs:10 ~noise_span:2)

let test_admissible_gen =
  QCheck.Test.make ~name:"bound >= MS on degenerate-corner instances"
    ~count:150 seed_gen admissible_gen_prop

let test_admissible_planted =
  QCheck.Test.make ~name:"bound >= MS on planted instances" ~count:50 seed_gen
    admissible_planted_prop

let test_admissible_sparse =
  QCheck.Test.make ~name:"bound >= MS on sparse instances" ~count:50 seed_gen
    admissible_sparse_prop

(* Border matches are sub-word alignments of the pair; the pair bound must
   dominate them too. *)
let border_bound_prop seed =
  let inst = Gen.instance (Rng.create seed) in
  let ok = ref true in
  for hf = 0 to Instance.fragment_count inst Species.H - 1 do
    let hlen = Fsa_seq.Fragment.length (Instance.fragment inst Species.H hf) in
    for mf = 0 to Instance.fragment_count inst Species.M - 1 do
      let mlen = Fsa_seq.Fragment.length (Instance.fragment inst Species.M mf) in
      let b = Bound.ms_bound inst ~full_side:Species.H hf ~other_frag:mf in
      let sites len =
        List.filter
          (fun (s : Fsa_seq.Site.t) ->
            not (s.Fsa_seq.Site.lo = 0 && s.Fsa_seq.Site.hi = len - 1))
          (Fsa_seq.Site.all_subsites len)
      in
      List.iter
        (fun hs ->
          List.iter
            (fun ms ->
              match Cmatch.border inst ~h_frag:hf ~h_site:hs ~m_frag:mf ~m_site:ms with
              | Some m -> if not (b >= m.Cmatch.score) then ok := false
              | None -> ())
            (sites mlen))
        (sites hlen)
    done
  done;
  !ok

let test_border_bound =
  QCheck.Test.make ~name:"pair bound dominates border matches" ~count:100
    seed_gen border_bound_prop

(* ------------------------------------------------------------------ *)
(* Pruning is output-preserving, bit for bit. *)

let solvers =
  [
    ("greedy", fun inst -> Greedy.solve inst);
    ("four_approx", fun inst -> One_csr.four_approx inst);
    ("full_improve", fun inst -> fst (Full_improve.solve inst));
    ("border_improve", fun inst -> fst (Border_improve.solve inst));
    ("matching_2approx", Border_improve.matching_2approx);
    ("csr_improve", fun inst -> fst (Csr_improve.solve inst));
  ]

let prune_identical_prop seed =
  let inst = Gen.instance (Rng.create seed) in
  List.for_all
    (fun (_, solve) ->
      let on = with_pruning true (fun () -> solve inst) in
      let off = with_pruning false (fun () -> solve inst) in
      Int64.bits_of_float (Solution.score on)
      = Int64.bits_of_float (Solution.score off)
      && Solution.to_text on = Solution.to_text off)
    solvers

let test_prune_identical =
  QCheck.Test.make ~name:"solver outputs bit-identical, pruning on vs off"
    ~count:60 seed_gen prune_identical_prop

let test_prune_counters () =
  let inst =
    let rng = Rng.create 77 in
    Instance.random_sparse rng ~regions:32 ~h_fragments:8 ~m_fragments:8
      ~inversion_rate:0.2 ~noise_pairs:16 ~noise_span:2
  in
  let reg = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
      with_pruning true (fun () -> ignore (One_csr.four_approx inst)));
  let c name =
    match Fsa_obs.Registry.counter_value reg name with Some v -> v | None -> 0.0
  in
  check_bool "bound checks recorded" true (c "cmatch.bound_checks" > 0.0);
  check_bool "sparse instance prunes pairs" true (c "cmatch.pruned" > 0.0);
  check_bool "pruned <= checked" true
    (c "cmatch.pruned" <= c "cmatch.bound_checks");
  (* CSR_Improve's tpa_fill counts a host column of checks per call; the
     totals must still come to one check per tested (job, host) pair.  The
     scan is sequential at any domain count, so every count below is
     exact.  With pruning on, Attempt_bound refuses 4 649 whole attempts
     before they reach tpa_fill, so fewer fills (and their checks) run. *)
  let csr_counters on =
    let reg = Fsa_obs.Registry.create () in
    Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
        with_pruning on (fun () -> ignore (Csr_improve.solve inst)));
    fun name ->
      match Fsa_obs.Registry.counter_value reg name with
      | Some v -> int_of_float v
      | None -> 0
  in
  let on = csr_counters true in
  check_int "csr_improve bound checks" 87469 (on "cmatch.bound_checks");
  check_int "csr_improve pruned" 66453 (on "cmatch.pruned");
  check_int "csr_improve refused attempts" 4649 (on "improve.pruned");
  check_int "csr_improve tpa_fill calls" 11371 (on "improve.tpa_fill_calls");
  check_int "csr_improve evaluated" 19744 (on "improve.evaluated");
  let off = csr_counters false in
  check_int "no checks with pruning off" 0 (off "cmatch.bound_checks");
  check_int "no prunes with pruning off" 0 (off "cmatch.pruned");
  check_int "no refused attempts with pruning off" 0 (off "improve.pruned");
  check_int "tpa_fill calls with pruning off" 19468 (off "improve.tpa_fill_calls");
  check_bool "refused attempts skip their fills" true
    (on "improve.tpa_fill_calls" < off "improve.tpa_fill_calls");
  check_int "pruning leaves evaluated alone" (on "improve.evaluated")
    (off "improve.evaluated")

(* ------------------------------------------------------------------ *)
(* Table memo: one solve never rebuilds the same table twice, and a repeat
   solve of the same instance is all hits. *)

let count_builds reg =
  match Fsa_obs.Registry.counter_value reg "cmatch.table_builds" with
  | Some v -> int_of_float v
  | None -> 0

let test_no_rebuild_within_solve () =
  let inst =
    let rng = Rng.create 42 in
    Instance.random_planted rng ~regions:48 ~h_fragments:8 ~m_fragments:8
      ~inversion_rate:0.2 ~noise_pairs:24
  in
  (* Distinct table keys: (side, full fragment, host fragment). *)
  let nh = Instance.fragment_count inst Species.H in
  let nm = Instance.fragment_count inst Species.M in
  let distinct = 2 * nh * nm in
  let reg = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
      with_pruning false (fun () ->
          ignore (One_csr.four_approx inst);
          ignore (Greedy.solve inst)));
  let builds = count_builds reg in
  check_bool "at least one build" true (builds > 0);
  check_bool
    (Printf.sprintf "no table built twice (%d builds <= %d pair tables)"
       builds distinct)
    true (builds <= distinct);
  (* A second identical solve must be served entirely from the memo. *)
  let reg2 = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg2 (fun () ->
      with_pruning false (fun () -> ignore (One_csr.four_approx inst)));
  check_int "repeat solve rebuilds nothing" 0 (count_builds reg2)

(* ------------------------------------------------------------------ *)
(* Attempt bounds: the oracle property of Fsa_check, on instances above
   the fuzz generator's four fragments a side. *)

let test_attempt_bound_larger () =
  let planted seed =
    Instance.random_planted (Rng.create seed) ~regions:16 ~h_fragments:4
      ~m_fragments:6 ~inversion_rate:0.2 ~noise_pairs:8
  in
  let sparse =
    Instance.random_sparse (Rng.create 77) ~regions:32 ~h_fragments:8 ~m_fragments:8
      ~inversion_rate:0.2 ~noise_pairs:16 ~noise_span:2
  in
  List.iteri
    (fun i inst ->
      check_bool
        (Printf.sprintf "instance %d: every I1/I2 result within its bound" i)
        false
        (Fsa_check.Oracle.fails "improve.attempt_bound" inst))
    [ planted 3; planted 4; planted 5; sparse ]

(* An I1 attempt that only the zone credit refuses.  The base plugs m1
   into h1 at [0,0] (a–x, 5) and m2 into h1 at [2,2] (c–y, 10).  Moving m1
   into h2 (d–x, 3) frees h1's [0,0], where a offers m2 nothing, so the
   attempt builds 15 − 5 + 3 = 13 and the zone-scoped bound is exactly
   that.  Crediting m2 with its host column against all of h1 (10) would
   add max(0, 10 − ½·10) = 5 and keep the attempt at a bound of 18. *)
let test_zone_credit () =
  let inst =
    Instance.of_text
      (String.concat "\n"
         [ "H h1: a b c"; "H h2: d"; "M m1: x"; "M m2: y"; "S a x 5"; "S c y 10";
           "S d x 3" ])
  in
  let plug m h lo =
    Cmatch.full inst ~full_side:Species.M m ~other_frag:h ~other_site:(Site.make lo lo)
  in
  let base = Result.get_ok (Solution.of_matches inst [ plug 0 0 0; plug 1 0 2 ]) in
  let shape =
    Attempt_bound.shape ~side:Species.H ~a:1 ~a_site:(Site.make 0 0) ~a_fill:false ~b:0
      ~b_site:(Site.make 0 0) ~b_fill:false ~break:false
  in
  let gain = (plug 0 1 0).Cmatch.score in
  let refuses () = Attempt_bound.refuses (Attempt_bound.create inst) shape ~gain base in
  let bound = ref nan in
  ignore (Attempt_bound.observe (fun b -> bound := b) refuses);
  Alcotest.(check (float 0.0)) "bound is what the attempt builds" 13.0 !bound;
  check_bool "refused" true (with_pruning true refuses);
  let i1 =
    List.find
      (fun (a : Improve.attempt) -> a.Improve.label () = "I1(M0 -> H1[0,0] in [0,0])")
      (Full_improve.attempts inst)
  in
  let built = with_pruning false (fun () -> i1.Improve.apply base) in
  check_bool "builds 13 unpruned" true (Option.map Solution.score built = Some 13.0);
  check_bool "returns None pruned" true
    (with_pruning true (fun () -> i1.Improve.apply base) = None)

(* A host with two zones, the second of which a fill uses.  The base
   plugs m1 into h1 at [3,3] (d–x, 4).  With containers enumerated in
   full, I1 moves m1 to [0,0] (a–x, 5) inside the container [0,1]: h1's
   zones are that container and the freed [3,3], where m2 then plugs
   (d–y, 10), so the attempt builds 15.  Crediting only h1's first zone
   would bound it by 5 and refuse an improving attempt. *)
let test_zone_credit_every_zone () =
  let inst =
    Instance.of_text
      (String.concat "\n"
         [ "H h1: a b c d"; "M m1: x"; "M m2: y"; "S d x 4"; "S a x 5"; "S d y 10" ])
  in
  let base =
    Result.get_ok
      (Solution.of_matches inst
         [ Cmatch.full inst ~full_side:Species.M 0 ~other_frag:0
             ~other_site:(Site.make 3 3) ])
  in
  let i1 =
    List.find
      (fun (a : Improve.attempt) -> a.Improve.label () = "I1(M0 -> H0[0,0] in [0,1])")
      (Full_improve.attempts ~site_mode:`All_containing inst)
  in
  let bound = ref nan in
  let built =
    with_pruning false (fun () ->
        Attempt_bound.observe (fun b -> bound := b) (fun () -> i1.Improve.apply base))
  in
  check_bool "builds 15" true (Option.map Solution.score built = Some 15.0);
  Alcotest.(check (float 0.0)) "bound is what the attempt builds" 15.0 !bound;
  check_bool "kept with pruning on" true
    (with_pruning true (fun () -> Option.map Solution.score (i1.Improve.apply base))
    = Some 15.0)

(* ------------------------------------------------------------------ *)

let () =
  (* Leave the ambient pruning setting alone (FSA_NO_PRUNE may be set by
     the CI matrix); every test pins what it needs via [with_pruning]. *)
  Alcotest.run "bound"
    [
      ( "admissible",
        [
          qtest test_admissible_gen;
          qtest test_admissible_planted;
          qtest test_admissible_sparse;
          qtest test_border_bound;
          Alcotest.test_case "attempt bounds above Gen's size" `Quick
            test_attempt_bound_larger;
        ] );
      ( "pruning",
        [
          qtest test_prune_identical;
          Alcotest.test_case "counters" `Quick test_prune_counters;
          Alcotest.test_case "zone credit refuses what a whole host keeps" `Quick
            test_zone_credit;
          Alcotest.test_case "zone credit covers every zone of a host" `Quick
            test_zone_credit_every_zone;
        ] );
      ( "cache",
        [
          Alcotest.test_case "no rebuild within one solve" `Quick
            test_no_rebuild_within_solve;
        ] );
    ]
