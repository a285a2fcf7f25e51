(* Tests for the extension features: island reports, FASTA I/O,
   indel/duplication evolution operators, and extra invariant property tests
   for preparation and TPA filling. *)

open Fsa_seq
open Fsa_csr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

(* ------------------------------------------------------------------ *)
(* Islands report                                                       *)

let fig5_solution () =
  let inst = Instance.paper_example () in
  let m1 = Cmatch.full inst ~full_side:Species.M 0 ~other_frag:0 ~other_site:(Site.make 0 1) in
  let m2 =
    match Cmatch.border inst ~h_frag:0 ~h_site:(Site.make 2 2) ~m_frag:1 ~m_site:(Site.make 0 0) with
    | Some b -> b
    | None -> assert false
  in
  let m3 = Cmatch.full inst ~full_side:Species.H 1 ~other_frag:1 ~other_site:(Site.make 1 1) in
  match Solution.of_matches inst [ m1; m2; m3 ] with
  | Ok s -> (inst, s)
  | Error e -> failwith e

let test_islands_fig5 () =
  let inst, sol = fig5_solution () in
  let report = Islands.infer sol in
  check_int "one island" 1 (List.length report.Islands.islands);
  check_int "nothing unplaced" 0 (List.length report.Islands.unplaced);
  let isl = List.hd report.Islands.islands in
  check_int "four members" 4 (List.length isl.Islands.members);
  check_float "score" 11.0 isl.Islands.score;
  check_int "three supporting matches" 3 (List.length isl.Islands.matches);
  (* Fig 4: reading the island forward, h2 appears reversed after h1. *)
  let hs = Islands.members_of_side isl Species.H in
  check_int "two h members" 2 (List.length hs);
  let h1 = List.nth hs 0 and h2 = List.nth hs 1 in
  check_int "h1 first" 0 h1.Islands.frag;
  check_bool "orientations differ between h1 and h2" true
    (h1.Islands.reversed <> h2.Islands.reversed);
  ignore inst

let test_islands_find () =
  let _, sol = fig5_solution () in
  let report = Islands.infer sol in
  check_bool "h1 placed" true (Islands.find report Species.H 0 = `Island 1);
  check_bool "m2 placed" true (Islands.find report Species.M 1 = `Island 1)

let test_islands_unplaced () =
  let inst = Instance.paper_example () in
  let m = Cmatch.full inst ~full_side:Species.H 1 ~other_frag:0 ~other_site:(Site.make 1 1) in
  let sol = Solution.add_exn (Solution.empty inst) m in
  let report = Islands.infer sol in
  check_int "one island" 1 (List.length report.Islands.islands);
  check_int "two unplaced" 2 (List.length report.Islands.unplaced);
  check_bool "h1 unplaced" true (Islands.find report Species.H 0 = `Unplaced)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let test_islands_render () =
  let inst, sol = fig5_solution () in
  let s = Islands.render inst (Islands.infer sol) in
  check_bool "mentions island 1" true
    (String.length s > 0 && String.sub s 0 8 = "island 1");
  List.iter
    (fun frag -> check_bool (frag ^ " mentioned") true (contains_substring s frag))
    [ "h1"; "h2"; "m1"; "m2" ]

let test_islands_scores_partition_qcheck =
  QCheck.Test.make ~name:"island scores sum to the solution score" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let inst =
        Instance.random_planted rng ~regions:8 ~h_fragments:3 ~m_fragments:3
          ~inversion_rate:0.3 ~noise_pairs:4
      in
      let sol = Csr_improve.solve_best inst in
      let report = Islands.infer sol in
      let total =
        List.fold_left (fun acc i -> acc +. i.Islands.score) 0.0 report.Islands.islands
      in
      Float.abs (total -. Solution.score sol) < 1e-6)

(* ------------------------------------------------------------------ *)
(* FASTA                                                                *)

let test_fasta_roundtrip () =
  let entries =
    [
      { Fasta.name = "ctg1"; description = "first contig"; dna = Dna.of_string "ACGTACGTAC" };
      { Fasta.name = "ctg2"; description = ""; dna = Dna.of_string "TTTT" };
    ]
  in
  let parsed = Fasta.parse (Fasta.to_string ~width:4 entries) in
  check_int "two entries" 2 (List.length parsed);
  List.iter2
    (fun a b ->
      check_string "name" a.Fasta.name b.Fasta.name;
      check_string "description" a.Fasta.description b.Fasta.description;
      check_bool "dna" true (Dna.equal a.Fasta.dna b.Fasta.dna))
    entries parsed

let test_fasta_wrapping () =
  let e = { Fasta.name = "x"; description = ""; dna = Dna.of_string "ACGTACGT" } in
  let s = Fasta.to_string ~width:3 [ e ] in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  check_int "header + 3 sequence lines" 4 (List.length lines)

let test_fasta_case_and_comments () =
  let parsed = Fasta.parse ">s desc here\n; a comment\nacgt\n\nACGT\n" in
  match parsed with
  | [ e ] ->
      check_string "name" "s" e.Fasta.name;
      check_string "description" "desc here" e.Fasta.description;
      check_string "upcased joined" "ACGTACGT" (Dna.to_string e.Fasta.dna)
  | _ -> Alcotest.fail "expected one entry"

let test_fasta_rejects_garbage () =
  List.iter
    (fun bad ->
      check_bool bad true
        (try
           ignore (Fasta.parse bad);
           false
         with Failure _ -> true))
    [ "ACGT\n"; ">x\nACGN\n"; "> \nACGT\n" ]

let test_fasta_file_roundtrip () =
  let path = Filename.temp_file "fsa" ".fa" in
  let entries = [ { Fasta.name = "c"; description = ""; dna = Dna.of_string "ACGT" } ] in
  Fasta.write_file path entries;
  let parsed = Fasta.read_file path in
  Sys.remove path;
  check_int "one entry" 1 (List.length parsed);
  check_bool "content" true
    (Dna.equal (List.hd parsed).Fasta.dna (List.hd entries).Fasta.dna)

(* ------------------------------------------------------------------ *)
(* Indels and duplications                                              *)

let ancestor seed =
  Fsa_genome.Genome.ancestral (Fsa_util.Rng.create seed) ~regions:8 ~region_len:30
    ~spacer_len:20

let test_delete_shifts () =
  let g = ancestor 30 in
  let r = List.nth g.Fsa_genome.Genome.regions 3 in
  (* delete a spacer chunk strictly before region 3 *)
  let g' = Fsa_genome.Evolution.delete ~at:0 ~len:5 g in
  check_bool "valid" true (Result.is_ok (Fsa_genome.Genome.validate g'));
  (match Fsa_genome.Genome.find_region g' 3 with
  | Some r' ->
      check_int "shifted left" (r.Fsa_genome.Genome.pos - 5) r'.Fsa_genome.Genome.pos;
      check_bool "content preserved" true
        (Dna.equal (Fsa_genome.Genome.region_dna g' r') (Fsa_genome.Genome.region_dna g r))
  | None -> Alcotest.fail "region must survive");
  check_int "length shrank" (Fsa_genome.Genome.length g - 5) (Fsa_genome.Genome.length g')

let test_delete_kills_inside () =
  let g = ancestor 31 in
  let r = List.nth g.Fsa_genome.Genome.regions 2 in
  let g' =
    Fsa_genome.Evolution.delete ~at:(r.Fsa_genome.Genome.pos - 1)
      ~len:(r.Fsa_genome.Genome.len + 2) g
  in
  check_bool "region gone" true (Fsa_genome.Genome.find_region g' 2 = None);
  check_bool "valid" true (Result.is_ok (Fsa_genome.Genome.validate g'))

let test_insert_preserves_regions () =
  let g = ancestor 32 in
  let piece = Dna.of_string "ACGTACGT" in
  let g' = Fsa_genome.Evolution.insert ~at:0 piece g in
  check_bool "valid" true (Result.is_ok (Fsa_genome.Genome.validate g'));
  check_int "all regions survive" 8 (List.length g'.Fsa_genome.Genome.regions);
  check_int "length grew" (Fsa_genome.Genome.length g + 8) (Fsa_genome.Genome.length g')

let test_insert_inside_region_drops_it () =
  let g = ancestor 33 in
  let r = List.nth g.Fsa_genome.Genome.regions 4 in
  let g' =
    Fsa_genome.Evolution.insert ~at:(r.Fsa_genome.Genome.pos + 2) (Dna.of_string "AC") g
  in
  check_bool "split region dropped" true (Fsa_genome.Genome.find_region g' 4 = None);
  check_int "others survive" 7 (List.length g'.Fsa_genome.Genome.regions)

let test_duplicate_creates_second_copy () =
  let g = ancestor 34 in
  let r = List.nth g.Fsa_genome.Genome.regions 1 in
  let from_ = r.Fsa_genome.Genome.pos - 2 and len = r.Fsa_genome.Genome.len + 4 in
  let to_ = Fsa_genome.Genome.length g in
  let g' = Fsa_genome.Evolution.duplicate ~from_ ~len ~to_ g in
  check_bool "valid (positions still disjoint)" true
    (Result.is_ok (Fsa_genome.Genome.validate g'));
  let copies =
    List.filter (fun (x : Fsa_genome.Genome.region) -> x.Fsa_genome.Genome.id = 1)
      g'.Fsa_genome.Genome.regions
  in
  check_int "two copies of region 1" 2 (List.length copies);
  (* both copies carry identical bases *)
  (match copies with
  | [ a; b ] ->
      check_bool "identical copies" true
        (Dna.equal (Fsa_genome.Genome.region_dna g' a) (Fsa_genome.Genome.region_dna g' b))
  | _ -> Alcotest.fail "expected exactly two")

let test_random_indels_valid_qcheck =
  QCheck.Test.make ~name:"random indels keep genomes valid" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let g = Fsa_genome.Evolution.random_indels rng ~count:5 ~mean_len:20 (ancestor seed) in
      Result.is_ok (Fsa_genome.Genome.validate g))

let test_random_duplications_valid_qcheck =
  QCheck.Test.make ~name:"random duplications keep genomes valid" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let g =
        Fsa_genome.Evolution.random_duplications rng ~count:3 ~mean_len:40 (ancestor seed)
      in
      Result.is_ok (Fsa_genome.Genome.validate g))

let test_pipeline_with_duplications () =
  (* Duplications inject region ambiguity; the pipeline must still produce
     consistent solutions and sane metrics. *)
  let rng = Fsa_util.Rng.create 35 in
  let p =
    { Fsa_genome.Pipeline.default_params with duplications = 2; indels = 2 }
  in
  let _, sol, report =
    Fsa_genome.Pipeline.run rng ~mode:`Oracle p ~solver:Csr_improve.solve_best
  in
  check_bool "valid" true (Result.is_ok (Solution.validate sol));
  check_bool "metrics sane" true
    (Fsa_genome.Metrics.order_accuracy report >= 0.0
    && Fsa_genome.Metrics.order_accuracy report <= 1.0)

(* ------------------------------------------------------------------ *)
(* Solution serialization                                               *)

let test_solution_text_roundtrip () =
  let inst, sol = fig5_solution () in
  let text = Solution.to_text sol in
  match Solution.of_text inst text with
  | Error e -> Alcotest.fail e
  | Ok sol' ->
      check_float "score preserved" (Solution.score sol) (Solution.score sol');
      check_int "match count" (Solution.size sol) (Solution.size sol')

let test_solution_text_roundtrip_qcheck =
  QCheck.Test.make ~name:"solution text round-trips for solver outputs" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let inst =
        Instance.random_planted rng ~regions:8 ~h_fragments:3 ~m_fragments:3
          ~inversion_rate:0.3 ~noise_pairs:4
      in
      let sol = Csr_improve.solve_best inst in
      match Solution.of_text inst (Solution.to_text sol) with
      | Ok sol' -> Float.abs (Solution.score sol -. Solution.score sol') < 1e-9
      | Error _ -> false)

let test_solution_text_rejects_bad () =
  let inst, _ = fig5_solution () in
  List.iter
    (fun bad ->
      check_bool bad true (Result.is_error (Solution.of_text inst bad)))
    [
      "garbage";
      "M nosuch 0 0 m1 0 0 fwd";
      "M h1 0 0 m1 0 0 sideways";
      (* inner x inner: structurally invalid *)
      "M h1 1 1 m1 0 0 fwd\nM h1 0 0 m1 1 1 fwd";
    ]

(* ------------------------------------------------------------------ *)
(* Preparation / TPA-fill invariants                                    *)

let random_solution seed =
  let rng = Fsa_util.Rng.create seed in
  let inst =
    Instance.random_planted rng ~regions:8 ~h_fragments:3 ~m_fragments:3
      ~inversion_rate:0.3 ~noise_pairs:4
  in
  let sol = if Fsa_util.Rng.bool rng then Greedy.solve inst else Csr_improve.solve_best inst in
  (rng, inst, sol)

let test_prepare_invariants_qcheck =
  QCheck.Test.make ~name:"prepare yields valid solutions with the site free"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng, inst, sol = random_solution seed in
      let side = if Fsa_util.Rng.bool rng then Species.H else Species.M in
      let frag = Fsa_util.Rng.int rng (Instance.fragment_count inst side) in
      let n = Fragment.length (Instance.fragment inst side frag) in
      let lo = Fsa_util.Rng.int rng n in
      let hi = Fsa_util.Rng.int_in rng lo (n - 1) in
      let site = Site.make lo hi in
      match Solution.prepare sol side frag site with
      | None -> Solution.is_hidden sol side frag site
      | Some (sol', freed) ->
          Result.is_ok (Solution.validate sol')
          && Solution.score sol' <= Solution.score sol +. 1e-9
          && List.for_all
               (fun s -> Site.disjoint s site)
               (Solution.occupied sol' side frag)
          && List.for_all
               (fun (f : Solution.freed) ->
                 List.for_all
                   (fun s -> Site.disjoint s f.Solution.site)
                   (Solution.occupied sol' f.Solution.side f.Solution.frag))
               freed)

let test_tpa_fill_invariants_qcheck =
  QCheck.Test.make ~name:"tpa_fill only adds valid matches inside free zones"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng, inst, sol = random_solution seed in
      let side = if Fsa_util.Rng.bool rng then Species.H else Species.M in
      let frag = Fsa_util.Rng.int rng (Instance.fragment_count inst side) in
      match Solution.free_sites sol side frag with
      | [] -> true
      | zones ->
          let sol' = Improve.tpa_fill sol ~host:(side, frag) ~zones ~exclude:[] in
          Result.is_ok (Solution.validate sol')
          && Solution.score sol' >= Solution.score sol -. 1e-9
          &&
          (* every new match on the host lies inside the zones *)
          let old = Solution.matches sol in
          List.for_all
            (fun (m : Cmatch.t) ->
              (not (Cmatch.frag_of m side = frag))
              || List.exists (fun m' -> Cmatch.equal m m') old
              || List.exists (fun z -> Site.contains z (Cmatch.site_of m side)) zones)
            (Solution.matches sol'))

let () =
  Alcotest.run "fsa_extensions"
    [
      ( "islands",
        [
          Alcotest.test_case "fig5 report" `Quick test_islands_fig5;
          Alcotest.test_case "find" `Quick test_islands_find;
          Alcotest.test_case "unplaced" `Quick test_islands_unplaced;
          Alcotest.test_case "render" `Quick test_islands_render;
          qtest test_islands_scores_partition_qcheck;
        ] );
      ( "fasta",
        [
          Alcotest.test_case "roundtrip" `Quick test_fasta_roundtrip;
          Alcotest.test_case "wrapping" `Quick test_fasta_wrapping;
          Alcotest.test_case "case & comments" `Quick test_fasta_case_and_comments;
          Alcotest.test_case "garbage rejected" `Quick test_fasta_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_fasta_file_roundtrip;
        ] );
      ( "indels_duplications",
        [
          Alcotest.test_case "delete shifts" `Quick test_delete_shifts;
          Alcotest.test_case "delete kills inside" `Quick test_delete_kills_inside;
          Alcotest.test_case "insert preserves" `Quick test_insert_preserves_regions;
          Alcotest.test_case "insert splits region" `Quick test_insert_inside_region_drops_it;
          Alcotest.test_case "duplication copies" `Quick test_duplicate_creates_second_copy;
          qtest test_random_indels_valid_qcheck;
          qtest test_random_duplications_valid_qcheck;
          Alcotest.test_case "pipeline with dups" `Quick test_pipeline_with_duplications;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_solution_text_roundtrip;
          qtest test_solution_text_roundtrip_qcheck;
          Alcotest.test_case "bad input" `Quick test_solution_text_rejects_bad;
        ] );
      ( "invariants",
        [
          qtest test_prepare_invariants_qcheck;
          qtest test_tpa_fill_invariants_qcheck;
        ] );
    ]
