open Fsa_seq

type built = Pipeline_types.built = {
  instance : Fsa_csr.Instance.t;
  h_contigs : Fragmentation.contig array;
  m_contigs : Fragmentation.contig array;
}

let nonempty contigs =
  Array.of_list
    (List.filter (fun (c : Fragmentation.contig) -> c.Fragmentation.regions <> []) contigs)

let contig_fragment alphabet (c : Fragmentation.contig) ~region_name =
  let syms =
    List.map
      (fun (r : Genome.region) ->
        let id = Alphabet.intern alphabet (region_name r.Genome.id) in
        if r.Genome.reversed then Symbol.reversed id else Symbol.make id)
      c.Fragmentation.regions
  in
  Fragment.make c.Fragmentation.name (Array.of_list syms)

(* ------------------------------------------------------------------ *)
(* Oracle mode                                                         *)

let oracle_instance ~h ~m =
  let h_contigs = nonempty h and m_contigs = nonempty m in
  let alphabet = Alphabet.create () in
  let region_name id = Printf.sprintf "r%d" id in
  let h_frags =
    Array.to_list (Array.map (contig_fragment alphabet ~region_name) h_contigs)
  in
  let m_frags =
    Array.to_list (Array.map (contig_fragment alphabet ~region_name) m_contigs)
  in
  let sigma = Scoring.create () in
  (* σ: length × identity between the two surviving copies, oriented back to
     the ancestral strand before comparison. *)
  let occurrence_dna (c : Fragmentation.contig) (r : Genome.region) =
    let d =
      Dna.sub c.Fragmentation.dna ~pos:r.Genome.pos ~len:r.Genome.len
    in
    if r.Genome.reversed then Dna.reverse_complement d else d
  in
  let m_copies = Hashtbl.create 64 in
  Array.iter
    (fun (c : Fragmentation.contig) ->
      List.iter
        (fun (r : Genome.region) ->
          Hashtbl.replace m_copies r.Genome.id (occurrence_dna c r))
        c.Fragmentation.regions)
    m_contigs;
  Array.iter
    (fun (c : Fragmentation.contig) ->
      List.iter
        (fun (r : Genome.region) ->
          match Hashtbl.find_opt m_copies r.Genome.id with
          | None -> ()
          | Some m_dna ->
              let h_dna = occurrence_dna c r in
              let v =
                float_of_int r.Genome.len *. Dna.identity h_dna m_dna
              in
              if v > 0.0 then begin
                let id = Alphabet.intern alphabet (region_name r.Genome.id) in
                (* Both occurrences are recorded ancestor-oriented here, so
                   the score belongs to the same-orientation class of the
                   ancestral strands. *)
                Scoring.set sigma (Symbol.make id) (Symbol.make id) v
              end)
        c.Fragmentation.regions)
    h_contigs;
  let instance =
    Fsa_csr.Instance.make ~alphabet ~h:h_frags ~m:m_frags ~sigma
  in
  { instance; h_contigs; m_contigs }

(* ------------------------------------------------------------------ *)
(* Discovery mode                                                      *)

type footprint = { lo : int; hi : int }

let cluster_footprints ~gap spans =
  (* spans sorted by lo; merge spans within [gap]; return cluster list. *)
  let sorted = List.sort compare (List.map (fun (lo, hi) -> (lo, hi)) spans) in
  List.fold_left
    (fun clusters (lo, hi) ->
      match clusters with
      | { lo = clo; hi = chi } :: rest when lo <= chi + gap ->
          { lo = clo; hi = max chi hi } :: rest
      | _ -> { lo; hi } :: clusters)
    [] sorted
  |> List.rev

(* A scored region-pair candidate between one h contig and one m contig:
   one per stitched chain.  Clustering and σ construction read only these. *)
type candidate = {
  c_hi : int;
  c_mi : int;
  h_span : int * int;  (** h-contig footprint, forward coordinates *)
  m_span : int * int;  (** m-contig footprint *)
  c_forward : bool;
  c_score : float;
}

let regions_counter = Fsa_obs.Metric.Counter.make "pipeline.regions_called"

exception No_regions

let discovery_instance ?(k = 12) ?(min_anchor_score = 24.0) ?(cluster_gap = 5)
    ?(max_gap = 300) ?band ?band_cap ~h ~m () =
  let h_all = Array.of_list h and m_all = Array.of_list m in
  (* One sorted index over every M contig, built on the calling domain. *)
  let idx =
    Fsa_align.Seed.index_targets ~k
      (Array.map (fun (c : Fragmentation.contig) -> c.Fragmentation.dna) m_all)
  in
  (* Item [i] is strand [i mod 2] (forward first) of H contig [i / 2].
     Each item's anchor lists, one per M contig, depend on that item alone,
     and chunks return them in item order, so the result is the same at any
     domain count. *)
  let strands =
    Fsa_parallel.Pool.fan_out ~n:(2 * Array.length h_all)
      ~chunk:(fun ~slot:_ ~lo ~hi ->
        Fsa_align.Seed.scan ~min_score:min_anchor_score idx
          (Array.init (hi - lo) (fun i ->
               let item = lo + i in
               (h_all.(item / 2).Fragmentation.dna, item mod 2 = 0))))
    |> Array.to_list |> Array.concat
  in
  (* Chaining and banded stitching per (m, h) pair, in the m-outer /
     h-inner order of the candidate stream.  A contig shorter than k has
     no k-mers, so its pairs have no anchors. *)
  let candidates = ref [] in
  Array.iteri
    (fun mi (mc : Fragmentation.contig) ->
      Array.iteri
        (fun hi (hc : Fragmentation.contig) ->
          let target = mc.Fragmentation.dna and query = hc.Fragmentation.dna in
          let fwd = strands.(2 * hi).(mi) and rev = strands.((2 * hi) + 1).(mi) in
          let found =
            Fsa_align.Seed.filter_dominated (Fsa_align.Seed.join_strands fwd rev)
          in
          if found <> [] then
            List.iter
              (fun c ->
                let st = Fsa_align.Chain.stitch ?band ?band_cap ~target ~query c in
                if st.Fsa_align.Chain.score > 0.0 then
                  candidates :=
                    {
                      c_hi = hi;
                      c_mi = mi;
                      h_span = (c.Fsa_align.Chain.q_lo, c.Fsa_align.Chain.q_hi);
                      m_span = (c.Fsa_align.Chain.t_lo, c.Fsa_align.Chain.t_hi);
                      c_forward = c.Fsa_align.Chain.forward;
                      c_score = st.Fsa_align.Chain.score;
                    }
                    :: !candidates)
              (Fsa_align.Chain.chains ~max_gap found))
        h_all)
    m_all;
  let candidates = List.rev !candidates in
  (* Cluster candidate footprints per contig side into discovered regions. *)
  let cluster side_count span_of =
    Array.init side_count (fun ci ->
        let spans = List.filter_map (span_of ci) candidates in
        cluster_footprints ~gap:cluster_gap spans)
  in
  let h_clusters =
    cluster (Array.length h_all) (fun ci c ->
        if c.c_hi = ci then Some c.h_span else None)
  in
  let m_clusters =
    cluster (Array.length m_all) (fun ci c ->
        if c.c_mi = ci then Some c.m_span else None)
  in
  Array.iter
    (fun cs -> Fsa_obs.Metric.Counter.add regions_counter (List.length cs))
    h_clusters;
  Array.iter
    (fun cs -> Fsa_obs.Metric.Counter.add regions_counter (List.length cs))
    m_clusters;
  (* Region alphabet: one per cluster, with side-distinct names. *)
  let alphabet = Alphabet.create () in
  let cluster_id prefix ci idx =
    Alphabet.intern alphabet (Printf.sprintf "%s%d_%d" prefix ci idx)
  in
  let find_cluster clusters ci lo =
    let rec at i = function
      | [] -> None
      | c :: rest -> if lo >= c.lo && lo <= c.hi then Some i else at (i + 1) rest
    in
    at 0 clusters.(ci)
  in
  (* σ: best candidate score per (h region, m region, orientation). *)
  let sigma = Scoring.create () in
  List.iter
    (fun c ->
      match
        ( find_cluster h_clusters c.c_hi (fst c.h_span),
          find_cluster m_clusters c.c_mi (fst c.m_span) )
      with
      | Some hc, Some mc ->
          let h_id = cluster_id "h" c.c_hi hc and m_id = cluster_id "m" c.c_mi mc in
          let m_sym = if c.c_forward then Symbol.make m_id else Symbol.reversed m_id in
          let prev = Scoring.get sigma (Symbol.make h_id) m_sym in
          if c.c_score > prev then Scoring.set sigma (Symbol.make h_id) m_sym c.c_score
      | _ -> ())
    candidates;
  (* Contigs become fragments listing their discovered regions in order;
     contigs with no region are dropped (with their ground truth). *)
  let build prefix clusters contigs =
    let keep = ref [] and frags = ref [] in
    Array.iteri
      (fun ci (c : Fragmentation.contig) ->
        match clusters.(ci) with
        | [] -> ()
        | cs ->
            let syms =
              List.mapi (fun idx _ -> Symbol.make (cluster_id prefix ci idx)) cs
            in
            keep := c :: !keep;
            frags := Fragment.make c.Fragmentation.name (Array.of_list syms) :: !frags)
      contigs;
    (Array.of_list (List.rev !keep), List.rev !frags)
  in
  let h_contigs, h_frags = build "h" h_clusters h_all in
  let m_contigs, m_frags = build "m" m_clusters m_all in
  if h_frags = [] || m_frags = [] then raise No_regions;
  let instance = Fsa_csr.Instance.make ~alphabet ~h:h_frags ~m:m_frags ~sigma in
  { instance; h_contigs; m_contigs }

(* ------------------------------------------------------------------ *)
(* Scenario driver                                                     *)

type params = {
  regions : int;
  region_len : int;
  spacer_len : int;
  h_pieces : int;
  m_pieces : int;
  substitution_rate : float;
  inversions : int;
  translocations : int;
  indels : int;
  duplications : int;
  rearrangement_len : int;
}

let default_params =
  {
    regions = 14;
    region_len = 60;
    spacer_len = 40;
    h_pieces = 3;
    m_pieces = 7;
    substitution_rate = 0.03;
    inversions = 2;
    translocations = 1;
    indels = 0;
    duplications = 0;
    rearrangement_len = 150;
  }

let generate rng p =
  let ancestor =
    Genome.ancestral rng ~regions:p.regions ~region_len:p.region_len
      ~spacer_len:p.spacer_len
  in
  let h_genome = Evolution.point_mutations rng ~rate:(p.substitution_rate /. 2.0) ancestor in
  let m_genome =
    Evolution.diverge rng ~indels:p.indels ~duplications:p.duplications
      ~substitution_rate:(p.substitution_rate /. 2.0) ~inversions:p.inversions
      ~translocations:p.translocations ~rearrangement_len:p.rearrangement_len
      ancestor
  in
  let h = Fragmentation.fragment rng ~pieces:p.h_pieces ~name_prefix:"h" h_genome in
  let m = Fragmentation.fragment rng ~pieces:p.m_pieces ~name_prefix:"m" m_genome in
  (h, m)

let run rng ?(mode = `Oracle) p ~solver =
  Fsa_obs.Span.with_ ~name:"pipeline.run" @@ fun () ->
  Fsa_obs.Span.phase "generate";
  let h, m = Fsa_obs.Span.with_ ~name:"pipeline.generate" (fun () -> generate rng p) in
  Fsa_obs.Span.phase "build";
  let built =
    Fsa_obs.Span.with_ ~name:"pipeline.build" (fun () ->
        match mode with
        | `Oracle -> oracle_instance ~h ~m
        | `Discovery -> discovery_instance ~h ~m ())
  in
  Fsa_obs.Span.phase "solve";
  let sol = Fsa_obs.Span.with_ ~name:"pipeline.solve" (fun () -> solver built.instance) in
  Fsa_obs.Span.phase "score";
  let report =
    Fsa_obs.Span.with_ ~name:"pipeline.score" (fun () -> Metrics.evaluate built sol)
  in
  (built, sol, report)
