(* genome_sim: run the synthetic comparative-genomics pipeline and report
   order/orient inference accuracy against ground truth.

   Example:
     dune exec bin/genome_sim.exe -- --regions 20 --m-pieces 8 --inversions 3 *)

open Cmdliner
module P = Fsa_genome.Pipeline

let export_fasta dir h m =
  let entries contigs =
    List.map
      (fun (c : Fsa_genome.Fragmentation.contig) ->
        {
          Fsa_seq.Fasta.name = c.Fsa_genome.Fragmentation.name;
          description =
            Printf.sprintf "offset=%d strand=%s"
              c.Fsa_genome.Fragmentation.true_offset
              (if c.Fsa_genome.Fragmentation.true_reversed then "-" else "+");
          dna = c.Fsa_genome.Fragmentation.dna;
        })
      contigs
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fsa_seq.Fasta.write_file (Filename.concat dir "h_contigs.fa") (entries h);
  Fsa_seq.Fasta.write_file (Filename.concat dir "m_contigs.fa") (entries m);
  Printf.printf "contigs exported to %s/{h,m}_contigs.fa\n" dir

let setup_observation trace stats =
  (match trace with
  | Some file ->
      let sink =
        try Fsa_obs.Sink.jsonl file
        with Sys_error msg ->
          prerr_endline ("genome_sim: error: cannot open trace file: " ^ msg);
          exit 2
      in
      Fsa_obs.Runtime.set_sink (Some sink);
      at_exit (fun () -> sink.Fsa_obs.Sink.close ())
  | None -> ());
  if stats then begin
    let reg = Fsa_obs.Registry.create () in
    Fsa_obs.Runtime.set_registry (Some reg);
    at_exit (fun () ->
        print_newline ();
        Fsa_obs.Report.print reg)
  end

let run seed mode regions region_len h_pieces m_pieces subst inversions translocations
    indels duplications reps show_islands fasta_dir trace stats =
  setup_observation trace stats;
  let mode = match mode with "oracle" -> `Oracle | _ -> `Discovery in
  let params =
    {
      P.regions;
      region_len;
      spacer_len = region_len * 2 / 3;
      h_pieces;
      m_pieces;
      substitution_rate = subst;
      inversions;
      translocations;
      indels;
      duplications;
      rearrangement_len = region_len * 5 / 2;
    }
  in
  (* Export before the solve loop so --reps 0 works as "generate and
     export only" — at chromosome scale the solve costs minutes the
     export-only caller (e.g. the CI discovery smoke) doesn't need. *)
  (match fasta_dir with
  | Some dir ->
      let h, m = P.generate (Fsa_util.Rng.create seed) params in
      export_fasta dir h m
  | None -> ());
  let accs = ref [] and covs = ref [] in
  for i = 0 to reps - 1 do
    let rng = Fsa_util.Rng.create (seed + i) in
    let built, sol, report =
      try P.run rng ~mode params ~solver:Fsa_csr.Csr_improve.solve_best
      with P.No_regions ->
        prerr_endline "genome_sim: no conserved regions discovered";
        exit 1
    in
    Printf.printf "run %d: score %.1f | %s\n" (i + 1)
      (Fsa_csr.Solution.score sol)
      (Format.asprintf "%a" Fsa_genome.Metrics.pp report);
    if show_islands then
      print_string
        (Fsa_csr.Islands.render built.P.instance (Fsa_csr.Islands.infer sol));
    accs := Fsa_genome.Metrics.order_accuracy report :: !accs;
    covs := Fsa_genome.Metrics.coverage report :: !covs
  done;
  if reps > 1 then
    Printf.printf "\nmean over %d runs: order accuracy %.2f, coverage %.2f\n" reps
      (Fsa_util.Stats.mean (Array.of_list !accs))
      (Fsa_util.Stats.mean (Array.of_list !covs))

let term =
  let open Arg in
  let seed = value & opt int 2026 & info [ "seed" ] ~doc:"PRNG seed." in
  let mode =
    value
    & opt (enum [ ("oracle", "oracle"); ("discovery", "discovery") ]) "oracle"
    & info [ "mode" ] ~doc:"Region calling: oracle (planted labels) or discovery (seed & extend)."
  in
  let regions = value & opt int 16 & info [ "regions" ] ~doc:"Conserved regions planted." in
  let region_len = value & opt int 60 & info [ "region-len" ] ~doc:"Region length (bp)." in
  let h_pieces = value & opt int 3 & info [ "h-pieces" ] ~doc:"H-side contig count." in
  let m_pieces = value & opt int 7 & info [ "m-pieces" ] ~doc:"M-side contig count." in
  let subst = value & opt float 0.03 & info [ "substitution-rate" ] ~doc:"Per-base substitution rate." in
  let inversions = value & opt int 2 & info [ "inversions" ] ~doc:"Segment inversions." in
  let transloc = value & opt int 1 & info [ "translocations" ] ~doc:"Segment translocations." in
  let indels = value & opt int 0 & info [ "indels" ] ~doc:"Small insertions/deletions." in
  let duplications =
    value & opt int 0 & info [ "duplications" ] ~doc:"Segmental duplications (region ambiguity)."
  in
  let reps =
    value & opt int 1
    & info [ "reps" ]
        ~doc:"Independent repetitions (0 with --export-fasta: generate and export only)."
  in
  let show_islands =
    value & flag & info [ "islands" ] ~doc:"Print the inferred island layouts."
  in
  let fasta_dir =
    value
    & opt (some string) None
    & info [ "export-fasta" ] ~docv:"DIR" ~doc:"Export the generated contigs as FASTA."
  in
  let trace =
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL trace (pipeline phases, spans, solver moves) to $(docv)."
  in
  let stats =
    value & flag
    & info [ "stats" ]
        ~doc:"Collect span/counter/histogram telemetry and print a summary table."
  in
  Term.(
    const run $ seed $ mode $ regions $ region_len $ h_pieces $ m_pieces $ subst
    $ inversions $ transloc $ indels $ duplications $ reps $ show_islands $ fasta_dir
    $ trace $ stats)

(* ------------------------------------------------------------------ *)
(* discover: seed → chain → band on real FASTA pairs                   *)

(* Exit 1 means only "no conserved region found"; a bad input exits 2 and
   a fault in this program 3, with the prefixes csr_solve uses. *)
let discover_error msg =
  prerr_endline ("genome_sim discover: error: " ^ msg);
  exit 2

let discover_internal_error msg =
  prerr_endline ("genome_sim discover: internal error: " ^ msg);
  exit 3

(* Flag values the pipeline would reject deep inside (or, worse, accept and
   misread) are user errors: exit 2 before any file is read. *)
let check_discover_flags ~k ~min_anchor_score ~cluster_gap ~max_gap ~band ~band_cap =
  let bad flag want got =
    discover_error (Printf.sprintf "%s must be %s (got %s)" flag want got)
  in
  if k < 1 || k > 30 then bad "-k" "in [1, 30]" (string_of_int k);
  if not (Float.is_finite min_anchor_score) then
    bad "--min-anchor-score" "a finite number" (string_of_float min_anchor_score);
  if cluster_gap < 0 then bad "--cluster-gap" ">= 0" (string_of_int cluster_gap);
  if max_gap < 0 then bad "--max-gap" ">= 0" (string_of_int max_gap);
  (match band with
  | Some b when b < 1 -> bad "--band" ">= 1" (string_of_int b)
  | _ -> ());
  match band_cap with
  | Some c when c < 0 -> bad "--band-cap" ">= 0" (string_of_int c)
  | _ -> ()

let contigs_of_fasta path =
  let entries =
    try Fsa_seq.Fasta.read_file path
    with Sys_error msg | Failure msg -> discover_error msg
  in
  if entries = [] then discover_error ("no sequences in " ^ path);
  List.map
    (fun (e : Fsa_seq.Fasta.entry) ->
      {
        Fsa_genome.Fragmentation.name = e.Fsa_seq.Fasta.name;
        dna = e.Fsa_seq.Fasta.dna;
        regions = [];
        true_offset = 0;
        true_reversed = false;
      })
    entries

let discover h_path m_path k min_anchor_score cluster_gap max_gap band band_cap trace =
  check_discover_flags ~k ~min_anchor_score ~cluster_gap ~max_gap ~band ~band_cap;
  setup_observation trace false;
  let reg = Fsa_obs.Registry.create () in
  Fsa_obs.Runtime.set_registry (Some reg);
  let h = contigs_of_fasta h_path and m = contigs_of_fasta m_path in
  (* The seed index's size limit is a property of the input: check it here,
     so that any failure inside discovery is this program's fault. *)
  let longest contigs =
    List.fold_left
      (fun n (c : Fsa_genome.Fragmentation.contig) ->
        max n (Fsa_seq.Dna.length c.Fsa_genome.Fragmentation.dna))
      0 contigs
  in
  (try Fsa_align.Seed.check_lengths ~target:(longest m) ~query:(longest h)
   with Invalid_argument msg -> discover_error msg);
  let built =
    match
      P.discovery_instance ~k ~min_anchor_score ~cluster_gap ~max_gap ?band ?band_cap
        ~h ~m ()
    with
    | built -> built
    | exception P.No_regions ->
        prerr_endline "genome_sim discover: no conserved regions discovered";
        exit 1
    | exception e -> discover_internal_error (Printexc.to_string e)
  in
  print_string (Fsa_csr.Instance.to_text built.P.instance);
  print_newline ();
  List.iter
    (fun (name, v) ->
      let prefix p = String.length name >= String.length p
                     && String.sub name 0 (String.length p) = p in
      if prefix "seed." || prefix "chain." || prefix "band."
         || prefix "pipeline." then
        Printf.printf "# %-28s %.0f\n" name v)
    (Fsa_obs.Registry.counters reg)

let discover_cmd =
  let open Arg in
  let h_fasta =
    required
    & pos 0 (some file) None
    & info [] ~docv:"H.fa" ~doc:"FASTA file with the first species' contigs."
  in
  let m_fasta =
    required
    & pos 1 (some file) None
    & info [] ~docv:"M.fa" ~doc:"FASTA file with the second species' contigs."
  in
  let k = value & opt int 12 & info [ "k" ] ~doc:"Seed k-mer size." in
  let min_anchor_score =
    value & opt float 24.0
    & info [ "min-anchor-score" ] ~doc:"Discard anchors scoring below this."
  in
  let cluster_gap =
    value & opt int 5
    & info [ "cluster-gap" ] ~doc:"Merge footprints within this many bases."
  in
  let max_gap =
    value & opt int 300
    & info [ "max-gap" ] ~doc:"Largest per-sequence gap bridged by a chain."
  in
  let band =
    value & opt (some int) None
    & info [ "band" ] ~doc:"Initial adaptive band for gap stitching."
  in
  let band_cap =
    value & opt (some int) None
    & info [ "band-cap" ]
        ~doc:"Band width beyond which stitching falls back to the full kernel."
  in
  let trace =
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL trace to $(docv)."
  in
  let doc = "discover homologous regions between two FASTA contig sets" in
  Cmd.v
    (Cmd.info "discover" ~doc)
    Term.(
      const discover $ h_fasta $ m_fasta $ k $ min_anchor_score $ cluster_gap $ max_gap
      $ band $ band_cap $ trace)

let cmd =
  let doc = "synthetic two-genome order/orient inference benchmark" in
  Cmd.group ~default:term (Cmd.info "genome_sim" ~doc) [ discover_cmd ]

let () = exit (Cmd.eval cmd)
