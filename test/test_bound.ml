(* Tests for the admissible match-score bound (Bound), the pruning switch,
   and the LRU-bounded caches behind Cmatch (PR 5).

   The load-bearing properties: the bound dominates the MS of every site in
   both orientations on adversarial instances (admissibility), solver
   outputs are bit-identical with pruning on and off, and one solve of a
   budget-fitting instance never rebuilds the same site table twice. *)

open Fsa_csr
module Rng = Fsa_util.Rng
module Lru = Fsa_util.Lru
module Gen = Fsa_check.Gen

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
  Cmatch.clear_cache ();
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
     exact.  With pruning on, Attempt_bound refuses 2 178 whole attempts
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
  check_int "csr_improve bound checks" 118206 (on "cmatch.bound_checks");
  check_int "csr_improve pruned" 90716 (on "cmatch.pruned");
  check_int "csr_improve refused attempts" 2178 (on "improve.pruned");
  check_int "csr_improve tpa_fill calls" 15762 (on "improve.tpa_fill_calls");
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
(* LRU table cache: one solve never rebuilds the same table twice, and a
   repeat solve is all hits (regression for the old whole-cache reset). *)

let count_builds reg =
  match Fsa_obs.Registry.counter_value reg "cmatch.table_builds" with
  | Some v -> int_of_float v
  | None -> 0

let test_no_rebuild_within_solve () =
  Cmatch.clear_cache ();
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
  (* A second identical solve must be served entirely from the cache. *)
  let reg2 = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg2 (fun () ->
      with_pruning false (fun () -> ignore (One_csr.four_approx inst)));
  check_int "repeat solve rebuilds nothing" 0 (count_builds reg2)

let test_lru_keeps_working_set () =
  (* Budget sized for two tables: the probe pattern A B A C A under LRU
     keeps A resident (3 builds total); the old reset-the-world policy
     rebuilt A after C's overflow.  Tables for this instance cost
     2·len(host)² cells each; all hosts have equal length by construction. *)
  Cmatch.clear_cache ();
  let inst =
    Instance.of_text
      (String.concat "\n"
         [
           "H h1: a b"; "H h2: c d"; "H h3: e f"; "M m1: a b";
           "S a a 2.0"; "S c a 1.0"; "S e b 1.0";
         ])
  in
  let cells_per_table = 2 * 2 * 2 in
  let old_budget = Cmatch.table_budget () in
  Fun.protect
    ~finally:(fun () -> Cmatch.set_table_budget old_budget)
    (fun () ->
      Cmatch.set_table_budget (2 * cells_per_table);
      let reg = Fsa_obs.Registry.create () in
      let probe idx =
        ignore (Cmatch.full_table inst ~full_side:Species.H idx ~other_frag:0)
      in
      Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
          probe 0; probe 1; probe 0; probe 2; probe 0);
      check_int "A B A C A costs 3 builds under LRU" 3 (count_builds reg);
      check_bool "evictions happened" true
        (match Fsa_obs.Registry.counter_value reg "cmatch.evictions" with
        | Some v -> v > 0.0
        | None -> false))

let test_invalidate_drops_instance () =
  Cmatch.clear_cache ();
  let inst =
    let rng = Rng.create 5 in
    Instance.random_planted rng ~regions:8 ~h_fragments:2 ~m_fragments:2
      ~inversion_rate:0.2 ~noise_pairs:4
  in
  let reg = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
      ignore (Cmatch.full_table inst ~full_side:Species.H 0 ~other_frag:0);
      Cmatch.invalidate inst;
      ignore (Cmatch.full_table inst ~full_side:Species.H 0 ~other_frag:0));
  check_int "rebuilt after invalidate" 2 (count_builds reg)

(* ------------------------------------------------------------------ *)
(* Lru (Fsa_util): unit behavior the caches rely on. *)

let test_lru_basic () =
  let t = Lru.create ~weight:(fun v -> v) () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  check_bool "find a" true (Lru.find t "a" = Some 1);
  check_int "total weight" 3 (Lru.total_weight t);
  Lru.remove t "a";
  check_bool "a gone" true (Lru.find t "a" = None);
  check_int "total weight after remove" 2 (Lru.total_weight t)

let test_lru_evicts_lru_first () =
  let evicted = ref [] in
  let t =
    Lru.create ~budget:10
      ~on_evict:(fun k _ -> evicted := k :: !evicted)
      ~weight:(fun _ -> 4) ()
  in
  Lru.add t "a" 0;
  Lru.add t "b" 0;
  ignore (Lru.find t "a");
  (* recency now: a (MRU), b (LRU); inserting c evicts b, not a *)
  Lru.add t "c" 0;
  check_bool "b evicted" true (!evicted = [ "b" ]);
  check_bool "a survives" true (Lru.mem t "a");
  check_bool "c resident" true (Lru.mem t "c");
  check_int "evictions counted" 1 (Lru.evictions t)

(* [find] of the most recent key answers from the list head without a
   relink; recency, evictions and their order must be what promoting it
   again would give. *)
let test_lru_mru_hit () =
  let evicted = ref [] in
  let t =
    Lru.create ~budget:12
      ~on_evict:(fun k _ -> evicted := k :: !evicted)
      ~weight:(fun _ -> 4) ()
  in
  let recency () = Lru.fold (fun k _ acc -> k :: acc) t [] |> List.rev in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "c" 3;
  for _ = 1 to 3 do
    check_bool "head hit" true (Lru.find t "c" = Some 3)
  done;
  check_bool "head hits keep the order" true (recency () = [ "c"; "b"; "a" ]);
  Lru.add t "d" 4;
  Lru.add t "e" 5;
  check_bool "LRU end evicted first" true (List.rev !evicted = [ "a"; "b" ]);
  check_int "two evictions" 2 (Lru.evictions t);
  (* A non-head key is still promoted: c moves ahead of e and d. *)
  check_bool "non-head hit" true (Lru.find t "c" = Some 3);
  check_bool "non-head hit promotes" true (recency () = [ "c"; "e"; "d" ]);
  check_bool "new head hit" true (Lru.find t "c" = Some 3);
  Lru.add t "f" 6;
  check_bool "d is now the LRU entry" true
    (List.rev !evicted = [ "a"; "b"; "d" ]);
  check_int "three evictions" 3 (Lru.evictions t);
  check_bool "final order" true (recency () = [ "f"; "c"; "e" ]);
  check_bool "missing key" true (Lru.find t "a" = None)

let test_lru_oversized_entry_kept () =
  let t = Lru.create ~budget:3 ~weight:(fun v -> v) () in
  Lru.add t "big" 100;
  check_bool "oversized entry still cached" true (Lru.mem t "big");
  Lru.add t "next" 1;
  check_bool "displaced by next insertion" false (Lru.mem t "big");
  check_bool "next resident" true (Lru.mem t "next")

let test_lru_replace_same_key () =
  let t = Lru.create ~weight:(fun v -> v) () in
  Lru.add t "k" 5;
  Lru.add t "k" 7;
  check_int "weight replaced, not summed" 7 (Lru.total_weight t);
  check_int "one entry" 1 (Lru.length t);
  check_bool "new value" true (Lru.find t "k" = Some 7)

let test_lru_filter_out () =
  let t = Lru.create ~weight:(fun _ -> 1) () in
  List.iter (fun k -> Lru.add t k k) [ 1; 2; 3; 4; 5 ];
  Lru.filter_out t (fun k -> k mod 2 = 0);
  check_int "odd entries left" 3 (Lru.length t);
  check_bool "2 gone" false (Lru.mem t 2);
  check_bool "3 kept" true (Lru.mem t 3);
  check_int "weight tracks" 3 (Lru.total_weight t)

let test_lru_set_budget_trims () =
  let t = Lru.create ~weight:(fun _ -> 1) () in
  List.iter (fun k -> Lru.add t k ()) [ 1; 2; 3; 4 ];
  Lru.set_budget t 2;
  check_int "trimmed to budget" 2 (Lru.length t);
  check_bool "MRU survivors" true (Lru.mem t 4 && Lru.mem t 3)

(* Differential check against a model: random ops vs an association-list
   model of LRU semantics. *)
let lru_model_prop seed =
  let rng = Rng.create seed in
  let t = Lru.create ~budget:6 ~weight:(fun _ -> 1) () in
  (* model: MRU-first list of (key, value), capacity 6 *)
  let model = ref [] in
  let model_add k v =
    model := (k, v) :: List.remove_assoc k !model;
    if List.length !model > 6 then
      model := List.filteri (fun i _ -> i < 6) !model
  in
  let model_find k =
    match List.assoc_opt k !model with
    | None -> None
    | Some v ->
        model := (k, v) :: List.remove_assoc k !model;
        Some v
  in
  let ok = ref true in
  for _ = 1 to 400 do
    let k = Rng.int rng 10 in
    if Rng.bool rng then begin
      let v = Rng.int rng 100 in
      Lru.add t k v;
      model_add k v
    end
    else if Lru.find t k <> model_find k then ok := false
  done;
  !ok && Lru.length t = List.length !model

let test_lru_model =
  QCheck.Test.make ~name:"Lru matches a model under random ops" ~count:50
    seed_gen lru_model_prop

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
        ] );
      ( "cache",
        [
          Alcotest.test_case "no rebuild within one solve" `Quick
            test_no_rebuild_within_solve;
          Alcotest.test_case "LRU keeps the working set" `Quick
            test_lru_keeps_working_set;
          Alcotest.test_case "invalidate drops instance" `Quick
            test_invalidate_drops_instance;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "evicts LRU first" `Quick test_lru_evicts_lru_first;
          Alcotest.test_case "most-recent hits" `Quick test_lru_mru_hit;
          Alcotest.test_case "oversized entry kept" `Quick
            test_lru_oversized_entry_kept;
          Alcotest.test_case "replace same key" `Quick test_lru_replace_same_key;
          Alcotest.test_case "filter_out" `Quick test_lru_filter_out;
          Alcotest.test_case "set_budget trims" `Quick test_lru_set_budget_trims;
          qtest test_lru_model;
        ] );
    ]
