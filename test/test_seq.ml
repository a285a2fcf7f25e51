(* Tests for Fsa_seq: duplicated alphabet, sites, fragments, σ tables,
   padded sequences, DNA. *)

open Fsa_seq

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

(* ------------------------------------------------------------------ *)
(* Symbol                                                               *)

let test_symbol_involution () =
  let a = Symbol.make 5 in
  check_bool "aᴿᴿ = a" true (Symbol.equal a (Symbol.reverse (Symbol.reverse a)));
  check_bool "a ≠ aᴿ" false (Symbol.equal a (Symbol.reverse a));
  check_bool "same region" true (Symbol.same_region a (Symbol.reverse a))

let test_symbol_order_hash () =
  let a = Symbol.make 3 and b = Symbol.reversed 3 in
  check_bool "compare distinguishes orientation" true (Symbol.compare a b <> 0);
  check_bool "hash distinguishes orientation" true (Symbol.hash a <> Symbol.hash b)

let test_symbol_pp () =
  check_string "forward" "7" (Format.asprintf "%a" Symbol.pp (Symbol.make 7));
  check_string "reversed" "7'" (Format.asprintf "%a" Symbol.pp (Symbol.reversed 7))

let test_symbol_negative_id () =
  Alcotest.check_raises "negative" (Invalid_argument "Symbol.make: negative id")
    (fun () -> ignore (Symbol.make (-1)))

(* ------------------------------------------------------------------ *)
(* Alphabet                                                             *)

let test_alphabet_roundtrip () =
  let a = Alphabet.create () in
  let x = Alphabet.intern a "geneA" in
  let y = Alphabet.intern a "geneB" in
  check_int "first id" 0 x;
  check_int "second id" 1 y;
  check_int "re-intern stable" x (Alphabet.intern a "geneA");
  check_string "name" "geneA" (Alphabet.name a x);
  check_int "size" 2 (Alphabet.size a)

let test_alphabet_symbol_strings () =
  let a = Alphabet.create () in
  let s = Alphabet.symbol_of_string a "x'" in
  check_bool "reversed parsed" true (Symbol.is_reversed s);
  check_string "roundtrip" "x'" (Alphabet.symbol_to_string a s);
  let f = Alphabet.symbol_of_string a "x" in
  check_bool "same region" true (Symbol.same_region s f);
  check_bool "forward" false (Symbol.is_reversed f)

let test_alphabet_invalid_names () =
  let a = Alphabet.create () in
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "reject %S" bad)
        true
        (try
           ignore (Alphabet.intern a bad);
           false
         with Invalid_argument _ -> true))
    [ ""; "a b"; "x,y"; "q'" ]

let test_alphabet_find () =
  let a = Alphabet.of_names [ "p"; "q" ] in
  check_bool "find known" true (Alphabet.find a "q" = Some 1);
  check_bool "find unknown" true (Alphabet.find a "r" = None);
  Alcotest.(check (array string)) "names" [| "p"; "q" |] (Alphabet.names a)

(* ------------------------------------------------------------------ *)
(* Site                                                                 *)

let test_site_classify () =
  let k s = Site.classify ~fragment_length:5 s in
  check_bool "full" true (k (Site.make 0 4) = Site.Full);
  check_bool "prefix" true (k (Site.make 0 2) = Site.Prefix);
  check_bool "suffix" true (k (Site.make 2 4) = Site.Suffix);
  check_bool "inner" true (k (Site.make 1 3) = Site.Inner);
  check_bool "single full" true (Site.classify ~fragment_length:1 (Site.make 0 0) = Site.Full)

let test_site_predicates () =
  let s = Site.make 2 5 in
  check_bool "contains" true (Site.contains s (Site.make 3 4));
  check_bool "contains self" true (Site.contains s s);
  check_bool "not contains" false (Site.contains s (Site.make 1 4));
  check_bool "adjacent" true (Site.adjacent (Site.make 0 1) (Site.make 2 4));
  check_bool "adjacent symm" true (Site.adjacent (Site.make 2 4) (Site.make 0 1));
  check_bool "not adjacent" false (Site.adjacent (Site.make 0 1) (Site.make 3 4));
  check_bool "overlaps" true (Site.overlaps (Site.make 0 3) (Site.make 3 5));
  check_bool "disjoint" true (Site.disjoint (Site.make 0 2) (Site.make 3 5));
  check_bool "hides strict" true (Site.hides (Site.make 0 5) (Site.make 1 4));
  check_bool "hides needs both strict" false (Site.hides (Site.make 0 5) (Site.make 0 4));
  check_bool "no self hide" false (Site.hides s s)

let test_site_subtract () =
  let s = Site.make 0 9 in
  Alcotest.(check int) "middle cut pieces" 2 (List.length (Site.subtract s (Site.make 3 5)));
  (match Site.subtract s (Site.make 3 5) with
  | [ a; b ] ->
      check_bool "left piece" true (Site.equal a (Site.make 0 2));
      check_bool "right piece" true (Site.equal b (Site.make 6 9))
  | _ -> Alcotest.fail "expected two pieces");
  check_int "cover cut" 0 (List.length (Site.subtract s (Site.make 0 9)));
  check_int "disjoint cut" 1 (List.length (Site.subtract s (Site.make 20 30)))

let test_site_intersect () =
  check_bool "overlap" true
    (Site.intersect (Site.make 0 4) (Site.make 3 7) = Some (Site.make 3 4));
  check_bool "none" true (Site.intersect (Site.make 0 2) (Site.make 3 7) = None)

let test_site_all_subsites () =
  let sites = Site.all_subsites 4 in
  check_int "count n(n+1)/2" 10 (List.length sites);
  check_bool "sorted lex" true (sites = List.sort Site.compare sites);
  check_bool "distinct" true
    (List.length (List.sort_uniq Site.compare sites) = 10)

let test_site_subtract_qcheck =
  let site = QCheck.(map (fun (a, b) -> Site.make (min a b) (max a b)) (pair (int_bound 15) (int_bound 15))) in
  QCheck.Test.make ~name:"subtract covers exactly the outside" ~count:300
    QCheck.(pair site site)
    (fun (s, cut) ->
      let pieces = Site.subtract s cut in
      let member p = List.exists (fun (q : Site.t) -> q.Site.lo <= p && p <= q.Site.hi) pieces in
      let ok = ref true in
      for p = s.Site.lo to s.Site.hi do
        let inside_cut = p >= cut.Site.lo && p <= cut.Site.hi in
        if member p = inside_cut then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fragment                                                             *)

let test_fragment_reverse_involution () =
  let f = Fragment.of_signed_ids "f" [ 1; -2; 3 ] in
  let r = Fragment.reverse f in
  check_bool "double reverse" true (Fragment.equal f (Fragment.reverse r));
  check_string "name gets quote" "f'" (Fragment.name r);
  check_string "name quote strips" "f" (Fragment.name (Fragment.reverse r))

let test_fragment_reverse_content () =
  (* (uv)ᴿ = vᴿuᴿ: ⟨1, 3ᴿ⟩ᴿ = ⟨3, 1ᴿ⟩  (signed: -3 encodes region 2 reversed) *)
  let f = Fragment.of_signed_ids "f" [ 1; -3 ] in
  let r = Fragment.reverse f in
  check_bool "first" true (Symbol.equal (Fragment.get r 0) (Symbol.make 2));
  check_bool "second" true (Symbol.equal (Fragment.get r 1) (Symbol.reversed 1))

let test_fragment_sub () =
  let f = Fragment.of_ids "f" [ 0; 1; 2; 3 ] in
  let s = Fragment.sub f (Site.make 1 2) in
  check_int "len" 2 (Array.length s);
  check_bool "content" true (Symbol.equal s.(0) (Symbol.make 1));
  let r = Fragment.sub_reversed f (Site.make 1 2) in
  check_bool "reversed first" true (Symbol.equal r.(0) (Symbol.reversed 2))

let test_fragment_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Fragment.make: empty fragment")
    (fun () -> ignore (Fragment.make "e" [||]))

let test_fragment_site_kind () =
  let f = Fragment.of_ids "f" [ 0; 1; 2 ] in
  check_bool "full site" true (Site.equal (Fragment.full_site f) (Site.make 0 2));
  check_bool "kind" true (Fragment.site_kind f (Site.make 0 1) = Site.Prefix)

let test_fragment_signed_ids () =
  let f = Fragment.of_signed_ids "f" [ -1 ] in
  check_bool "negative is reversed region 0" true
    (Symbol.equal (Fragment.get f 0) (Symbol.reversed 0))

(* ------------------------------------------------------------------ *)
(* Scoring                                                              *)

let test_scoring_reversal_symmetry () =
  let t = Scoring.create () in
  let a = Symbol.make 1 and b = Symbol.reversed 2 in
  Scoring.set t a b 4.5;
  check_float "direct" 4.5 (Scoring.get t a b);
  check_float "σ(aᴿ,bᴿ)" 4.5 (Scoring.get t (Symbol.reverse a) (Symbol.reverse b));
  check_float "other class unset" 0.0 (Scoring.get t a (Symbol.reverse b))

let test_scoring_orientation_classes () =
  let t = Scoring.create () in
  Scoring.set t (Symbol.make 0) (Symbol.make 1) 1.0;
  Scoring.set t (Symbol.make 0) (Symbol.reversed 1) 2.0;
  check_float "same class" 1.0 (Scoring.get t (Symbol.make 0) (Symbol.make 1));
  check_float "opp class" 2.0 (Scoring.get t (Symbol.make 0) (Symbol.reversed 1));
  check_float "flipped pair same class" 1.0
    (Scoring.get t (Symbol.reversed 0) (Symbol.reversed 1))

let test_scoring_overwrite_and_entries () =
  let t = Scoring.create () in
  Scoring.set t (Symbol.make 0) (Symbol.make 0) 1.0;
  Scoring.set t (Symbol.make 0) (Symbol.make 0) 3.0;
  check_float "overwritten" 3.0 (Scoring.get t (Symbol.make 0) (Symbol.make 0));
  check_int "single entry" 1 (List.length (Scoring.entries t))

let test_scoring_positive_pairs () =
  let t = Scoring.create () in
  Scoring.set t (Symbol.make 0) (Symbol.make 1) 2.0;
  Scoring.set t (Symbol.make 0) (Symbol.make 2) (-1.0);
  check_int "positive only" 1 (List.length (Scoring.positive_pairs t));
  check_float "max" 2.0 (Scoring.max_score t)

let test_scoring_scale_truncate () =
  let t = Scoring.create () in
  Scoring.set t (Symbol.make 0) (Symbol.make 1) 7.3;
  let doubled = Scoring.scale t 2.0 in
  check_float "scaled" 14.6 (Scoring.get doubled (Symbol.make 0) (Symbol.make 1));
  let trunc = Scoring.truncate_to_multiples t 2.0 in
  check_float "truncated down" 6.0 (Scoring.get trunc (Symbol.make 0) (Symbol.make 1))

let test_scoring_random_bijective () =
  let rng = Fsa_util.Rng.create 3 in
  let t = Scoring.random_bijective rng ~regions:10 ~lo:1.0 ~hi:2.0 ~reversed_fraction:0.5 in
  check_int "one entry per region" 10 (List.length (Scoring.entries t));
  List.iter
    (fun (h, m, _, v) ->
      check_int "diagonal" h m;
      check_bool "in range" true (v >= 1.0 && v <= 2.0))
    (Scoring.entries t)

(* ------------------------------------------------------------------ *)
(* Padded                                                               *)

let sigma_simple () =
  Scoring.of_list
    [
      (Symbol.make 0, Symbol.make 0, 2.0);
      (Symbol.make 1, Symbol.make 1, 3.0);
      (Symbol.make 0, Symbol.reversed 1, 5.0);
    ]

let test_padded_score_unequal_lengths () =
  let sigma = sigma_simple () in
  let a = Padded.of_symbols [| Symbol.make 0 |] in
  let b = Padded.of_symbols [| Symbol.make 0; Symbol.make 1 |] in
  check_float "unequal is 0" 0.0 (Padded.score sigma a b)

let test_padded_score_columns () =
  let sigma = sigma_simple () in
  let a = [| Some (Symbol.make 0); None; Some (Symbol.make 1) |] in
  let b = [| Some (Symbol.make 0); Some (Symbol.make 1); Some (Symbol.make 1) |] in
  check_float "column sum, pads free" 5.0 (Padded.score sigma a b)

let test_padded_strip_reverse () =
  let a = [| None; Some (Symbol.make 0); None; Some (Symbol.reversed 1) |] in
  let stripped = Padded.strip a in
  check_int "stripped len" 2 (Array.length stripped);
  let r = Padded.reverse a in
  check_bool "pads keep place mirrored" true (r.(0) <> None && r.(1) = None);
  check_bool "symbols flipped" true
    (match r.(0) with Some s -> Symbol.equal s (Symbol.make 1) | None -> false)

let test_padded_is_padding_of () =
  let word = [| Symbol.make 0; Symbol.make 1 |] in
  check_bool "with pads" true
    (Padded.is_padding_of [| None; Some (Symbol.make 0); Some (Symbol.make 1); None |] word);
  check_bool "wrong order" false
    (Padded.is_padding_of [| Some (Symbol.make 1); Some (Symbol.make 0) |] word)

let test_padded_brute_matches_known () =
  let sigma = sigma_simple () in
  (* ⟨0,1⟩ vs ⟨0,1⟩: both diagonal pairs = 5. *)
  let w = [| Symbol.make 0; Symbol.make 1 |] in
  check_float "both pairs" 5.0 (Padded.best_pair_score_brute sigma w w);
  (* crossing pairs can't both be taken: ⟨0,1⟩ vs ⟨1,0⟩ = max(2,3). *)
  let x = [| Symbol.make 1; Symbol.make 0 |] in
  check_float "crossing blocked" 3.0 (Padded.best_pair_score_brute sigma w x)

let test_padded_brute_empty_is_zero () =
  let sigma = Scoring.create () in
  check_float "no scores" 0.0
    (Padded.best_pair_score_brute sigma [| Symbol.make 0 |] [| Symbol.make 1 |])

(* ------------------------------------------------------------------ *)
(* Dna                                                                  *)

let test_dna_roundtrip () =
  let d = Dna.of_string "acgtACGT" in
  check_string "upcased" "ACGTACGT" (Dna.to_string d);
  check_int "length" 8 (Dna.length d)

let test_dna_invalid () =
  Alcotest.check_raises "bad base" (Invalid_argument "Dna: invalid base 'N'")
    (fun () -> ignore (Dna.of_string "ACGN"))

let test_dna_revcomp () =
  let d = Dna.of_string "AACGT" in
  check_string "revcomp" "ACGTT" (Dna.to_string (Dna.reverse_complement d));
  check_bool "involution" true
    (Dna.equal d (Dna.reverse_complement (Dna.reverse_complement d)))

let test_dna_gc () =
  check_float "gc" 0.5 (Dna.gc_content (Dna.of_string "ACGT"))

let test_dna_random_gc () =
  let rng = Fsa_util.Rng.create 4 in
  let d = Dna.random_gc rng ~gc:0.8 20_000 in
  check_bool "gc near 0.8" true (Float.abs (Dna.gc_content d -. 0.8) < 0.02)

let test_dna_point_mutate () =
  let rng = Fsa_util.Rng.create 5 in
  let d = Dna.random rng 10_000 in
  let m = Dna.point_mutate rng ~rate:0.1 d in
  let dist = Dna.hamming d m in
  check_bool "rate respected" true (dist > 700 && dist < 1300);
  let unchanged = Dna.point_mutate rng ~rate:0.0 d in
  check_int "rate 0" 0 (Dna.hamming d unchanged)

let test_dna_identity () =
  let a = Dna.of_string "AAAA" and b = Dna.of_string "AATT" in
  check_float "identity" 0.5 (Dna.identity a b);
  check_float "self" 1.0 (Dna.identity a a);
  check_float "length mismatch penalized" 0.5
    (Dna.identity (Dna.of_string "AA") (Dna.of_string "AATT"))

let test_dna_kmers () =
  let d = Dna.of_string "ACGT" in
  (* A=0 C=1 G=2 T=3; "AC" = 1, "CG" = 6, "GT" = 11 *)
  let kmers = Kmers.fold ~k:2 d ~init:[] ~f:(fun acc ~pos ~kmer -> (pos, kmer) :: acc) in
  Alcotest.(check (list (pair int int))) "rolling kmers" [ (2, 11); (1, 6); (0, 1) ] kmers;
  check_int "pack agrees" 6 (Kmers.pack d ~pos:1 ~k:2)

let test_dna_kmer_rolling_qcheck =
  QCheck.Test.make ~name:"rolling k-mers equal direct packing" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 10 60))
    (fun (k, n) ->
      let rng = Fsa_util.Rng.create (k + (n * 1000)) in
      let d = Dna.random rng n in
      Kmers.fold ~k d ~init:true ~f:(fun acc ~pos ~kmer ->
          acc && kmer = Kmers.pack d ~pos ~k))

let test_dna_hamming_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Dna.hamming: length mismatch")
    (fun () -> ignore (Dna.hamming (Dna.of_string "A") (Dna.of_string "AA")))

let () =
  Alcotest.run "fsa_seq"
    [
      ( "symbol",
        [
          Alcotest.test_case "involution" `Quick test_symbol_involution;
          Alcotest.test_case "order & hash" `Quick test_symbol_order_hash;
          Alcotest.test_case "pretty printing" `Quick test_symbol_pp;
          Alcotest.test_case "negative id" `Quick test_symbol_negative_id;
        ] );
      ( "alphabet",
        [
          Alcotest.test_case "roundtrip" `Quick test_alphabet_roundtrip;
          Alcotest.test_case "symbol strings" `Quick test_alphabet_symbol_strings;
          Alcotest.test_case "invalid names" `Quick test_alphabet_invalid_names;
          Alcotest.test_case "find & names" `Quick test_alphabet_find;
        ] );
      ( "site",
        [
          Alcotest.test_case "classify" `Quick test_site_classify;
          Alcotest.test_case "predicates" `Quick test_site_predicates;
          Alcotest.test_case "subtract" `Quick test_site_subtract;
          Alcotest.test_case "intersect" `Quick test_site_intersect;
          Alcotest.test_case "all_subsites" `Quick test_site_all_subsites;
          qtest test_site_subtract_qcheck;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "reverse involution" `Quick test_fragment_reverse_involution;
          Alcotest.test_case "reverse content" `Quick test_fragment_reverse_content;
          Alcotest.test_case "sub sites" `Quick test_fragment_sub;
          Alcotest.test_case "empty rejected" `Quick test_fragment_empty_rejected;
          Alcotest.test_case "site kinds" `Quick test_fragment_site_kind;
          Alcotest.test_case "signed ids" `Quick test_fragment_signed_ids;
        ] );
      ( "scoring",
        [
          Alcotest.test_case "reversal symmetry" `Quick test_scoring_reversal_symmetry;
          Alcotest.test_case "orientation classes" `Quick test_scoring_orientation_classes;
          Alcotest.test_case "overwrite & entries" `Quick test_scoring_overwrite_and_entries;
          Alcotest.test_case "positive pairs" `Quick test_scoring_positive_pairs;
          Alcotest.test_case "scale & truncate" `Quick test_scoring_scale_truncate;
          Alcotest.test_case "random bijective" `Quick test_scoring_random_bijective;
        ] );
      ( "padded",
        [
          Alcotest.test_case "unequal lengths score 0" `Quick test_padded_score_unequal_lengths;
          Alcotest.test_case "column score" `Quick test_padded_score_columns;
          Alcotest.test_case "strip & reverse" `Quick test_padded_strip_reverse;
          Alcotest.test_case "is_padding_of" `Quick test_padded_is_padding_of;
          Alcotest.test_case "reference P_score" `Quick test_padded_brute_matches_known;
          Alcotest.test_case "empty score" `Quick test_padded_brute_empty_is_zero;
        ] );
      ( "dna",
        [
          Alcotest.test_case "roundtrip" `Quick test_dna_roundtrip;
          Alcotest.test_case "invalid base" `Quick test_dna_invalid;
          Alcotest.test_case "reverse complement" `Quick test_dna_revcomp;
          Alcotest.test_case "gc content" `Quick test_dna_gc;
          Alcotest.test_case "random gc" `Quick test_dna_random_gc;
          Alcotest.test_case "point mutation" `Quick test_dna_point_mutate;
          Alcotest.test_case "identity" `Quick test_dna_identity;
          Alcotest.test_case "kmers" `Quick test_dna_kmers;
          Alcotest.test_case "hamming mismatch" `Quick test_dna_hamming_mismatch;
          qtest test_dna_kmer_rolling_qcheck;
        ] );
    ]
