(* Tests for the synthetic comparative-genomics substrate: genome
   generation, evolutionary operators with coordinate tracking,
   fragmentation, instance construction, and ground-truth metrics. *)

open Fsa_seq
open Fsa_genome

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

let ancestor seed =
  Genome.ancestral (Fsa_util.Rng.create seed) ~regions:8 ~region_len:30 ~spacer_len:20

(* ------------------------------------------------------------------ *)
(* Genome                                                               *)

let test_ancestral_valid_qcheck =
  QCheck.Test.make ~name:"ancestral genomes validate" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = ancestor seed in
      Result.is_ok (Genome.validate g)
      && List.length g.Genome.regions = 8
      && Genome.sorted_region_ids g = [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_region_dna_length () =
  let g = ancestor 1 in
  List.iter
    (fun r -> check_int "region dna length" 30 (Dna.length (Genome.region_dna g r)))
    g.Genome.regions

let test_find_region () =
  let g = ancestor 2 in
  check_bool "found" true (Genome.find_region g 3 <> None);
  check_bool "absent" true (Genome.find_region g 99 = None)

(* ------------------------------------------------------------------ *)
(* Evolution                                                            *)

let test_point_mutations_keep_coordinates () =
  let g = ancestor 3 in
  let g' = Evolution.point_mutations (Fsa_util.Rng.create 0) ~rate:0.1 g in
  check_int "genome length unchanged" (Genome.length g) (Genome.length g');
  check_bool "regions unchanged" true (g.Genome.regions = g'.Genome.regions);
  check_bool "dna changed" false (Dna.equal g.Genome.dna g'.Genome.dna)

let test_invert_flips_content_and_strand () =
  let g = ancestor 4 in
  let r = List.nth g.Genome.regions 2 in
  let at = r.Genome.pos - 3 and len = r.Genome.len + 6 in
  let g' = Evolution.invert (Fsa_util.Rng.create 0) ~at ~len g in
  check_bool "valid after inversion" true (Result.is_ok (Genome.validate g'));
  (match Genome.find_region g' r.Genome.id with
  | None -> Alcotest.fail "region inside the segment must survive"
  | Some r' ->
      check_bool "strand flipped" true r'.Genome.reversed;
      (* its bases, reverse-complemented back, equal the original copy *)
      check_bool "content preserved" true
        (Dna.equal
           (Dna.reverse_complement (Genome.region_dna g' r'))
           (Genome.region_dna g r)));
  check_int "genome length unchanged" (Genome.length g) (Genome.length g')

let test_invert_drops_straddlers () =
  let g = ancestor 5 in
  let r = List.nth g.Genome.regions 2 in
  (* Cut through the middle of the region. *)
  let at = r.Genome.pos + (r.Genome.len / 2) in
  let g' = Evolution.invert (Fsa_util.Rng.create 0) ~at ~len:40 g in
  check_bool "straddler dropped" true (Genome.find_region g' r.Genome.id = None);
  check_bool "still valid" true (Result.is_ok (Genome.validate g'))

let test_invert_involution () =
  let g = ancestor 6 in
  let g' = Evolution.invert (Fsa_util.Rng.create 0) ~at:50 ~len:80 g in
  let g'' = Evolution.invert (Fsa_util.Rng.create 0) ~at:50 ~len:80 g' in
  check_bool "dna restored" true (Dna.equal g.Genome.dna g''.Genome.dna)

let test_translocate_moves_region () =
  let g = ancestor 7 in
  let r = List.hd g.Genome.regions in
  let from_ = r.Genome.pos - 1 and len = r.Genome.len + 2 in
  let dest = Genome.length g - len - 5 in
  let g' = Evolution.translocate (Fsa_util.Rng.create 0) ~from_ ~len ~to_:dest g in
  check_bool "valid" true (Result.is_ok (Genome.validate g'));
  (match Genome.find_region g' r.Genome.id with
  | None -> Alcotest.fail "moved region must survive"
  | Some r' ->
      check_bool "moved late" true (r'.Genome.pos > r.Genome.pos);
      check_bool "content preserved" true
        (Dna.equal (Genome.region_dna g' r') (Genome.region_dna g r)));
  check_int "length unchanged" (Genome.length g) (Genome.length g')

let test_random_ops_keep_validity_qcheck =
  QCheck.Test.make ~name:"random rearrangements keep genomes valid" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let g = ancestor seed in
      let g = Evolution.random_inversions rng ~count:3 ~mean_len:60 g in
      let g = Evolution.random_translocations rng ~count:2 ~mean_len:60 g in
      Result.is_ok (Genome.validate g) && Genome.length g = Genome.length (ancestor seed))

let test_diverge_pipeline () =
  let rng = Fsa_util.Rng.create 8 in
  let g = ancestor 8 in
  let g' =
    Evolution.diverge rng ~substitution_rate:0.05 ~inversions:2 ~translocations:1
      ~rearrangement_len:60 g
  in
  check_bool "valid" true (Result.is_ok (Genome.validate g'));
  check_bool "some regions survive" true (g'.Genome.regions <> [])

(* ------------------------------------------------------------------ *)
(* Fragmentation                                                        *)

let test_fragment_covers_genome_qcheck =
  QCheck.Test.make ~name:"contigs partition the genome" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 6))
    (fun (seed, pieces) ->
      let g = ancestor seed in
      let rng = Fsa_util.Rng.create seed in
      let contigs =
        Fragmentation.fragment rng ~pieces ~shuffle:false ~random_strand:false
          ~name_prefix:"c" g
      in
      List.length contigs = pieces
      && List.fold_left (fun acc c -> acc + Dna.length c.Fragmentation.dna) 0 contigs
         = Genome.length g)

let test_fragment_truth_tracks_content () =
  let g = ancestor 9 in
  let rng = Fsa_util.Rng.create 9 in
  let contigs = Fragmentation.fragment rng ~pieces:4 ~name_prefix:"c" g in
  List.iter
    (fun c ->
      (* Recover the original slice from ground truth and compare. *)
      let n = Dna.length c.Fragmentation.dna in
      let original = Dna.sub g.Genome.dna ~pos:c.Fragmentation.true_offset ~len:n in
      let restored =
        if c.Fragmentation.true_reversed then Dna.reverse_complement c.Fragmentation.dna
        else c.Fragmentation.dna
      in
      check_bool "truth restores the slice" true (Dna.equal original restored))
    contigs

let test_fragment_region_local_coords () =
  let g = ancestor 10 in
  let rng = Fsa_util.Rng.create 10 in
  let contigs = Fragmentation.fragment rng ~pieces:3 ~name_prefix:"c" g in
  List.iter
    (fun c ->
      List.iter
        (fun (r : Genome.region) ->
          check_bool "in contig bounds" true
            (r.Genome.pos >= 0 && r.Genome.pos + r.Genome.len <= Dna.length c.Fragmentation.dna))
        c.Fragmentation.regions)
    contigs

let test_fragment_no_partial_regions_qcheck =
  QCheck.Test.make ~name:"regions are never split across contigs" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, pieces) ->
      let g = ancestor seed in
      let rng = Fsa_util.Rng.create seed in
      let contigs =
        Fragmentation.fragment rng ~pieces ~shuffle:false ~random_strand:false
          ~name_prefix:"c" g
      in
      (* Each surviving region appears exactly once, whole. *)
      let survivors = List.concat_map Fragmentation.contig_region_ids contigs in
      List.length survivors = List.length (List.sort_uniq compare survivors)
      && List.length survivors <= 8)

(* ------------------------------------------------------------------ *)
(* Pipeline + metrics                                                   *)

let test_oracle_instance_regions_shared () =
  let rng = Fsa_util.Rng.create 11 in
  let p = { Pipeline.default_params with inversions = 0; translocations = 0 } in
  let h, m = Pipeline.generate rng p in
  let built = Pipeline.oracle_instance ~h ~m in
  let inst = built.Pipeline.instance in
  check_bool "sigma has entries" true (Fsa_seq.Scoring.entries inst.Fsa_csr.Instance.sigma <> []);
  check_int "contig maps align with instance"
    (Fsa_csr.Instance.fragment_count inst Fsa_csr.Species.H)
    (Array.length built.Pipeline.h_contigs)

let test_oracle_perfect_recovery () =
  (* No rearrangements: a correct solver must recover order and orientation
     perfectly (up to island mirroring). *)
  let rng = Fsa_util.Rng.create 12 in
  let p = { Pipeline.default_params with inversions = 0; translocations = 0 } in
  let _, _, report =
    Pipeline.run rng ~mode:`Oracle p ~solver:Fsa_csr.Csr_improve.solve_best
  in
  check_float "perfect order accuracy" 1.0 (Metrics.order_accuracy report);
  check_bool "pairs were actually scored" true (report.Metrics.h_pairs + report.Metrics.m_pairs > 0)

let test_oracle_survives_rearrangements_qcheck =
  QCheck.Test.make ~name:"oracle pipeline always yields consistent solutions"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Fsa_util.Rng.create seed in
      let built, sol, report =
        Pipeline.run rng ~mode:`Oracle Pipeline.default_params
          ~solver:Fsa_csr.Csr_improve.solve_best
      in
      ignore built;
      Result.is_ok (Fsa_csr.Solution.validate sol)
      && Metrics.order_accuracy report >= 0.0
      && Metrics.coverage report <= 1.0)

let test_discovery_instance_finds_regions () =
  let rng = Fsa_util.Rng.create 13 in
  let p = { Pipeline.default_params with substitution_rate = 0.02 } in
  let h, m = Pipeline.generate rng p in
  let built = Pipeline.discovery_instance ~h ~m () in
  let inst = built.Pipeline.instance in
  check_bool "h fragments discovered" true
    (Fsa_csr.Instance.fragment_count inst Fsa_csr.Species.H > 0);
  check_bool "sigma populated" true
    (Fsa_seq.Scoring.entries inst.Fsa_csr.Instance.sigma <> [])

(* Unrelated contigs are an empty answer, raised as its own outcome so that
   a caller can tell it from a fault. *)
let test_discovery_nothing_found () =
  let rng = Fsa_util.Rng.create 5 in
  let contig name =
    {
      Fragmentation.name;
      dna = Fsa_seq.Dna.random rng 200;
      regions = [];
      true_offset = 0;
      true_reversed = false;
    }
  in
  match Pipeline.discovery_instance ~h:[ contig "h" ] ~m:[ contig "m" ] () with
  | _ -> Alcotest.fail "unrelated contigs gave an instance"
  | exception Pipeline.No_regions -> ()

let test_discovery_recovery_reasonable () =
  let rng = Fsa_util.Rng.create 14 in
  let p = { Pipeline.default_params with inversions = 0; translocations = 0 } in
  let _, _, report =
    Pipeline.run rng ~mode:`Discovery p ~solver:Fsa_csr.Csr_improve.solve_best
  in
  check_bool "good accuracy without rearrangements" true
    (Metrics.order_accuracy report >= 0.8)

(* Recovery against the simulator's ground truth on fixed seeds 1–30 of
   [default_params] without rearrangements: discovery → solve_best must
   recover the true contig order and orientation exactly, never below
   oracle mode, and keep most contigs.  The coverage floors come from a
   sweep of seeds 1–60 in both modes, which read order accuracy 1.0
   throughout and minimum coverage 0.40 (discovery) and 0.571 (oracle),
   with the restart-at-zero and the circular improvement scan alike.  The
   rearranged family is left out: there oracle mode itself reads 0.0 on
   some seeds (EXPERIMENTS E10). *)
let test_recovery_without_rearrangements () =
  let p = { Pipeline.default_params with inversions = 0; translocations = 0 } in
  for seed = 1 to 30 do
    let h, m = Pipeline.generate (Fsa_util.Rng.create seed) p in
    let recover built =
      let sol = Fsa_csr.Csr_improve.solve_best built.Pipeline.instance in
      Metrics.evaluate built sol
    in
    let oracle = recover (Pipeline.oracle_instance ~h ~m) in
    let discovery = recover (Pipeline.discovery_instance ~h ~m ()) in
    let what s = Printf.sprintf "seed %d: %s" seed s in
    check_float (what "discovery order accuracy") 1.0
      (Metrics.order_accuracy discovery);
    check_bool (what "discovery accuracy >= oracle's") true
      (Metrics.order_accuracy discovery >= Metrics.order_accuracy oracle);
    check_bool (what "discovery coverage >= 0.4") true
      (Metrics.coverage discovery >= 0.4);
    check_bool (what "oracle coverage >= 0.5") true (Metrics.coverage oracle >= 0.5)
  done

(* Golden: the instance text [Pipeline.discovery_instance] builds at its
   defaults on seeds 1–3 of [default_params].  Any change to seeding,
   chaining, stitching, clustering or σ shows up here byte for byte. *)
let discovery_golden =
  [
    ( 1,
      "H h3: h0_0\n\
       H h2: h1_0\n\
       H h1: h2_0 h2_1\n\
       M m6: m2_0\n\
       M m7: m3_0 m3_1\n\
       M m2: m4_0\n\
       M m5: m5_0\n\
       M m3: m6_0\n\
       S h1_0 m2_0 51\n\
       S h1_0 m2_0' 458.5\n\
       S h1_0 m3_0' 84\n\
       S h1_0 m5_0' 58\n\
       S h0_0 m3_1' 52\n\
       S h2_0 m4_0 265\n\
       S h2_0 m6_0' 112\n\
       S h2_1 m5_0 213\n" );
    ( 2,
      "H h3: h0_0\n\
       H h2: h1_0 h1_1\n\
       H h1: h2_0\n\
       M m7: m0_0\n\
       M m5: m1_0\n\
       M m1: m2_0\n\
       M m6: m3_0\n\
       M m4: m5_0\n\
       M m2: m6_0\n\
       S h0_0 m0_0 107\n\
       S h0_0 m1_0 31\n\
       S h0_0 m5_0' 151\n\
       S h1_0 m0_0' 30\n\
       S h1_0 m3_0' 31\n\
       S h1_0 m5_0 336\n\
       S h1_1 m2_0 365\n\
       S h1_1 m6_0 31\n\
       S h2_0 m2_0 91\n\
       S h2_0 m2_0' 234\n" );
    ( 3,
      "H h3: h1_0 h1_1 h1_2\n\
       H h2: h2_0\n\
       M m2: m0_0\n\
       M m1: m1_0\n\
       M m3: m2_0\n\
       M m4: m4_0\n\
       M m5: m5_0\n\
       M m7: m6_0\n\
       S h1_1 m0_0 217\n\
       S h1_1 m0_0' 48\n\
       S h1_1 m2_0' 64\n\
       S h1_1 m4_0' 74\n\
       S h1_1 m5_0' 77\n\
       S h1_2 m1_0' 82\n\
       S h2_0 m1_0' 106\n\
       S h1_0 m6_0 53\n\
       S h1_0 m6_0' 452\n" );
  ]

let test_discovery_golden () =
  List.iter
    (fun (seed, expected) ->
      let rng = Fsa_util.Rng.create seed in
      let h, m = Pipeline.generate rng Pipeline.default_params in
      let built = Pipeline.discovery_instance ~h ~m () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d instance text" seed)
        expected
        (Fsa_csr.Instance.to_text built.Pipeline.instance))
    discovery_golden

(* The chromosome-scale pair CI exports with [genome_sim --export-fasta
   --seed 7 --regions 140 --region-len 1200 --m-pieces 7 --indels 8] and
   discovers with [--max-gap 2000 --band 4], so that chains bridge the
   ~750 bp indels and the adaptive band has to widen.  Pinned: the instance
   text and every seed.* / chain.* / band.* / pipeline.* counter, which is
   what [genome_sim discover] prints. *)
let smoke_golden_text =
  "H h2: h0_0\n\
   H h1: h1_0\n\
   H h3: h2_0\n\
   M m3: m0_0\n\
   M m5: m1_0\n\
   M m4: m2_0\n\
   M m1: m3_0\n\
   M m2: m4_0\n\
   M m7: m5_0\n\
   M m6: m6_0\n\
   S h0_0 m0_0 13553.5\n\
   S h0_0 m0_0' 325\n\
   S h0_0 m1_0 70254\n\
   S h0_0 m2_0' 11885\n\
   S h0_0 m3_0 13888\n\
   S h0_0 m3_0' 6024\n\
   S h0_0 m4_0' 22564.5\n\
   S h2_0 m1_0 35526\n\
   S h2_0 m5_0 51591\n\
   S h2_0 m6_0' 10561\n\
   S h1_0 m3_0 3902\n"

let smoke_golden_counters =
  [
    ("band.certified", 4.0);
    ("band.widenings", 5.0);
    ("chain.anchors_chained", 23.0);
    ("chain.chains_built", 13.0);
    ("chain.dp_pairs", 17.0);
    ("pipeline.regions_called", 10.0);
    ("seed.anchors_dominated", 196.0);
    ("seed.anchors_filtered", 1072.0);
    ("seed.anchors_found", 219.0);
    ("seed.hits", 33490.0);
    ("seed.index_entries", 49146.0);
    ("seed.runs_extended", 1291.0);
  ]

let test_discovery_golden_smoke_pair () =
  let p =
    {
      Pipeline.default_params with
      regions = 140;
      region_len = 1200;
      spacer_len = 800;
      m_pieces = 7;
      indels = 8;
      rearrangement_len = 3000;
    }
  in
  let h, m = Pipeline.generate (Fsa_util.Rng.create 7) p in
  let reg = Fsa_obs.Registry.create () in
  let built =
    Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
        Pipeline.discovery_instance ~max_gap:2000 ~band:4 ~h ~m ())
  in
  Alcotest.(check string)
    "instance text" smoke_golden_text
    (Fsa_csr.Instance.to_text built.Pipeline.instance);
  let discovery_counter (name, _) =
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "seed."; "chain."; "band."; "pipeline." ]
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "counters" smoke_golden_counters
    (List.filter discovery_counter (Fsa_obs.Registry.counters reg))

let test_chained_engine_builds () =
  let rng = Fsa_util.Rng.create 13 in
  let h, m = Pipeline.generate rng Pipeline.default_params in
  let reg = Fsa_obs.Registry.create () in
  let built =
    Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
        Pipeline.discovery_instance ~h ~m ())
  in
  let inst = built.Pipeline.instance in
  check_bool "h fragments discovered" true
    (Fsa_csr.Instance.fragment_count inst Fsa_csr.Species.H > 0);
  check_bool "sigma populated" true
    (Fsa_seq.Scoring.entries inst.Fsa_csr.Instance.sigma <> []);
  let c name =
    match Fsa_obs.Registry.counter_value reg name with Some v -> v | None -> 0.0
  in
  check_bool "chains were built" true (c "chain.chains_built" > 0.0);
  check_bool "anchors were chained" true (c "chain.anchors_chained" > 0.0)

let test_engines_agree_on_structure () =
  (* The oracle builder (planted labels) and the discovery engine (seed →
     chain → band) see the same contigs, so on an easy instance (no
     rearrangements) discovery must find regions on every contig the oracle
     places, and a solver should recover accurate order from either. *)
  let p = { Pipeline.default_params with inversions = 0; translocations = 0 } in
  let h, m = Pipeline.generate (Fsa_util.Rng.create 14) p in
  let oracle = Pipeline.oracle_instance ~h ~m in
  let discovered = Pipeline.discovery_instance ~h ~m () in
  let names contigs =
    Array.to_list (Array.map (fun c -> c.Fragmentation.name) contigs)
  in
  let covers side oracle_contigs discovered_contigs =
    let found = names discovered_contigs in
    List.iter
      (fun name ->
        check_bool
          (Printf.sprintf "%s contig %s discovered" side name)
          true (List.mem name found))
      (names oracle_contigs)
  in
  covers "H" oracle.Pipeline.h_contigs discovered.Pipeline.h_contigs;
  covers "M" oracle.Pipeline.m_contigs discovered.Pipeline.m_contigs;
  List.iter
    (fun built ->
      let sol = Fsa_csr.Csr_improve.solve_best built.Pipeline.instance in
      let report = Metrics.evaluate built sol in
      check_bool "good accuracy without rearrangements" true
        (Metrics.order_accuracy report >= 0.8))
    [ oracle; discovered ]

let test_metrics_counts () =
  let rng = Fsa_util.Rng.create 15 in
  let built, sol, report =
    Pipeline.run rng ~mode:`Oracle Pipeline.default_params
      ~solver:Fsa_csr.Csr_improve.solve_best
  in
  let inst = built.Pipeline.instance in
  let total =
    Fsa_csr.Instance.fragment_count inst Fsa_csr.Species.H
    + Fsa_csr.Instance.fragment_count inst Fsa_csr.Species.M
  in
  check_int "total fragments" total report.Metrics.total_fragments;
  check_bool "matched <= total" true (report.Metrics.matched_fragments <= total);
  check_bool "correct <= pairs" true
    (report.Metrics.h_correct <= report.Metrics.h_pairs
    && report.Metrics.m_correct <= report.Metrics.m_pairs);
  ignore sol

let test_empty_solver_vacuous_metrics () =
  let rng = Fsa_util.Rng.create 16 in
  let _, _, report =
    Pipeline.run rng ~mode:`Oracle Pipeline.default_params
      ~solver:(fun inst -> Fsa_csr.Solution.empty inst)
  in
  check_int "no islands" 0 report.Metrics.islands;
  check_float "vacuous accuracy" 1.0 (Metrics.order_accuracy report);
  check_float "zero coverage" 0.0 (Metrics.coverage report)

let () =
  Alcotest.run "fsa_genome"
    [
      ( "genome",
        [
          qtest test_ancestral_valid_qcheck;
          Alcotest.test_case "region dna" `Quick test_region_dna_length;
          Alcotest.test_case "find region" `Quick test_find_region;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "point mutations" `Quick test_point_mutations_keep_coordinates;
          Alcotest.test_case "inversion flips" `Quick test_invert_flips_content_and_strand;
          Alcotest.test_case "inversion drops straddlers" `Quick test_invert_drops_straddlers;
          Alcotest.test_case "inversion involution" `Quick test_invert_involution;
          Alcotest.test_case "translocation" `Quick test_translocate_moves_region;
          qtest test_random_ops_keep_validity_qcheck;
          Alcotest.test_case "diverge" `Quick test_diverge_pipeline;
        ] );
      ( "fragmentation",
        [
          qtest test_fragment_covers_genome_qcheck;
          Alcotest.test_case "ground truth restores slices" `Quick test_fragment_truth_tracks_content;
          Alcotest.test_case "local coordinates" `Quick test_fragment_region_local_coords;
          qtest test_fragment_no_partial_regions_qcheck;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "oracle instance" `Quick test_oracle_instance_regions_shared;
          Alcotest.test_case "perfect recovery" `Quick test_oracle_perfect_recovery;
          qtest test_oracle_survives_rearrangements_qcheck;
          Alcotest.test_case "discovery instance" `Quick test_discovery_instance_finds_regions;
          Alcotest.test_case "discovery nothing found" `Quick test_discovery_nothing_found;
          Alcotest.test_case "discovery recovery" `Quick test_discovery_recovery_reasonable;
          Alcotest.test_case "recovery without rearrangements" `Quick
            test_recovery_without_rearrangements;
          Alcotest.test_case "discovery golden" `Quick test_discovery_golden;
          Alcotest.test_case "discovery golden smoke pair" `Quick
            test_discovery_golden_smoke_pair;
          Alcotest.test_case "chained engine builds" `Quick test_chained_engine_builds;
          Alcotest.test_case "engines agree on structure" `Quick test_engines_agree_on_structure;
          Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
          Alcotest.test_case "empty solver" `Quick test_empty_solver_vacuous_metrics;
        ] );
    ]
