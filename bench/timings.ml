(* Bechamel timing benches: one per performance-relevant kernel.  Shapes
   (who is linear, who is cubic) matter more than absolute numbers. *)

open Bechamel
open Toolkit
module Rng = Fsa_util.Rng

let p_score_bench n =
  let rng = Rng.create 7 in
  let sigma =
    Fsa_seq.Scoring.random_bijective rng ~regions:n ~lo:1.0 ~hi:5.0 ~reversed_fraction:0.3
  in
  let word k = Array.init k (fun _ -> Fsa_seq.Symbol.make (Rng.int rng n)) in
  let a = word n and b = word n in
  Test.make
    ~name:(Printf.sprintf "p_score %dx%d" n n)
    (Staged.stage (fun () -> ignore (Fsa_align.Region_align.p_score sigma a b)))

let tpa_bench jobs cpj =
  let rng = Rng.create 8 in
  let isp =
    Fsa_intervals.Isp.random_instance rng ~jobs ~candidates_per_job:cpj ~span:1000
      ~max_len:40 ~max_profit:10.0
  in
  Test.make
    ~name:(Printf.sprintf "TPA %d jobs x %d" jobs cpj)
    (Staged.stage (fun () -> ignore (Fsa_intervals.Isp.tpa isp)))

let hungarian_bench n =
  let rng = Rng.create 9 in
  let w = Array.init n (fun _ -> Array.init n (fun _ -> Rng.float rng 10.0)) in
  Test.make
    ~name:(Printf.sprintf "hungarian %dx%d" n n)
    (Staged.stage (fun () -> ignore (Fsa_matching.Hungarian.solve w)))

let seed_extend_bench len =
  let rng = Rng.create 10 in
  let target = Fsa_seq.Dna.random rng len in
  let query =
    Fsa_seq.Dna.concat
      [ Fsa_seq.Dna.random rng (len / 4);
        Fsa_seq.Dna.point_mutate rng ~rate:0.03 (Fsa_seq.Dna.sub target ~pos:(len / 4) ~len:(len / 2));
        Fsa_seq.Dna.random rng (len / 4) ]
  in
  (* The pipeline's path, on one target: [index_targets], both strands
     in one [scan], joined. *)
  let idx = Fsa_align.Seed.index_targets ~k:12 [| target |] in
  Test.make
    ~name:(Printf.sprintf "seed+extend %db" len)
    (Staged.stage (fun () ->
         let strands = Fsa_align.Seed.scan idx [| (query, true); (query, false) |] in
         ignore (Fsa_align.Seed.join_strands strands.(0).(0) strands.(1).(0))))

let csr_improve_bench () =
  let inst = Fsa_csr.Instance.paper_example () in
  Test.make ~name:"CSR_Improve paper example"
    (Staged.stage (fun () -> ignore (Fsa_csr.Csr_improve.solve inst)))

let full_improve_bench () =
  let rng = Rng.create 14 in
  let inst =
    Fsa_csr.Instance.random_planted rng ~regions:12 ~h_fragments:3 ~m_fragments:3
      ~inversion_rate:0.2 ~noise_pairs:6
  in
  Test.make ~name:"Full_Improve (12 regions)"
    (Staged.stage (fun () -> ignore (Fsa_csr.Full_improve.solve inst)))

let tpa_fill_bench () =
  (* 96 regions / 8 fragments: per-run time far above timer jitter and GC
     pause noise (the old 20-region workload sat near both and kept
     r² ~ 0.85), and the site tables are warmed once up front so every
     measured run does the same zone-scan work. *)
  let rng = Rng.create 15 in
  let inst =
    Fsa_csr.Instance.random_planted rng ~regions:96 ~h_fragments:8 ~m_fragments:8
      ~inversion_rate:0.2 ~noise_pairs:48
  in
  let empty = Fsa_csr.Solution.empty inst in
  let zones =
    [ Fsa_seq.Fragment.full_site (Fsa_csr.Instance.fragment inst Fsa_csr.Species.H 0) ]
  in
  ignore
    (Fsa_csr.Improve.tpa_fill empty ~host:(Fsa_csr.Species.H, 0) ~zones
       ~exclude:[]);
  Test.make ~name:"tpa_fill (96 regions)"
    (Staged.stage (fun () ->
         ignore
           (Fsa_csr.Improve.tpa_fill empty ~host:(Fsa_csr.Species.H, 0) ~zones
              ~exclude:[])))

(* Large sparse tier: band-diagonal σ over planted genomes, the regime the
   admissible-bound pruning and the LRU table cache target.  Compare with
   FSA_NO_PRUNE=1 FSA_TABLE_BUDGET=0 to measure both layers' effect. *)
let sparse_inst ~regions ~frags =
  let rng = Rng.create 16 in
  Fsa_csr.Instance.random_sparse rng ~regions ~h_fragments:frags
    ~m_fragments:frags ~inversion_rate:0.2 ~noise_pairs:(regions / 2)
    ~noise_span:3

let sparse_four_approx_bench ~regions ~frags =
  let inst = sparse_inst ~regions ~frags in
  Test.make
    ~name:(Printf.sprintf "sparse 4-approx (%dr %df)" regions frags)
    (Staged.stage (fun () -> ignore (Fsa_csr.One_csr.four_approx inst)))

let sparse_greedy_bench ~regions ~frags =
  let inst = sparse_inst ~regions ~frags in
  Test.make
    ~name:(Printf.sprintf "sparse greedy (%dr %df)" regions frags)
    (Staged.stage (fun () -> ignore (Fsa_csr.Greedy.solve inst)))

(* Latency-budget tier: the anytime portfolio under a wall deadline shorter
   than a converged improvement run.  The "@Nms" suffix is load-bearing:
   tools/benchgate parses it and enforces an absolute 2×deadline ceiling on
   the measured time (the anytime contract), on top of the usual relative
   gate.  Per-bench counters record the answered-tier histogram
   (portfolio.answered.<tier>) and the deadline-hit rate
   (portfolio.deadline_hits vs runs). *)
let portfolio_bench ~regions ~frags ~deadline_ms =
  let inst = sparse_inst ~regions ~frags in
  let deadline = float_of_int deadline_ms /. 1000.0 in
  Test.make
    ~name:
      (Printf.sprintf "sparse portfolio (%dr %df) @%dms" regions frags
         deadline_ms)
    (Staged.stage (fun () ->
         ignore (Fsa_portfolio.Portfolio.solve ~deadline inst)))

(* Chromosome-scale discovery tier: one ≥256 kb synthetic genome pair,
   instance built by Pipeline.discovery_instance (seed → chain → band).
   Homology is confined to planted ~3 kb conserved regions separated by
   unrelated random spacers — unlike Pipeline.generate, whose spacers
   descend from the shared ancestor too, which would make every contig pair
   homologous end to end.  A few regions are inverted on the M side to
   exercise reverse-strand chains.  Per-bench counters carry the chain.* /
   band.* telemetry (band.fallbacks is force-registered so the key is
   present even when the adaptive kernel never falls back). *)
let discovery_pair =
  lazy
    (let rng = Rng.create 17 in
     let regions = 44 and region_len = 3000 and spacer_len = 3000 in
     let cores =
       Array.init regions (fun _ -> Fsa_seq.Dna.random rng region_len)
     in
     (* Small indels shift the alignment diagonal mid-region, so one region
        seeds several anchors that only chaining reunites — and the
        inter-anchor gaps are what the adaptive banded stitcher aligns. *)
     let indel core =
       let n = Fsa_seq.Dna.length core in
       let pos = Rng.int rng n in
       if Rng.int rng 2 = 0 then
         let len = min (1 + Rng.int rng 20) (n - pos) in
         Fsa_seq.Dna.concat
           [
             Fsa_seq.Dna.sub core ~pos:0 ~len:pos;
             Fsa_seq.Dna.sub core ~pos:(pos + len) ~len:(n - pos - len);
           ]
       else
         Fsa_seq.Dna.concat
           [
             Fsa_seq.Dna.sub core ~pos:0 ~len:pos;
             Fsa_seq.Dna.random rng (1 + Rng.int rng 20);
             Fsa_seq.Dna.sub core ~pos ~len:(n - pos);
           ]
     in
     let rec indels k core = if k = 0 then core else indels (k - 1) (indel core) in
     let genome ~mutate ~core_indels ~invert_every =
       let parts = ref [ Fsa_seq.Dna.random rng spacer_len ] in
       Array.iteri
         (fun i core ->
           let core = Fsa_seq.Dna.point_mutate rng ~rate:mutate core in
           let core = indels core_indels core in
           let core =
             if invert_every > 0 && i mod invert_every = invert_every - 1 then
               Fsa_seq.Dna.reverse_complement core
             else core
           in
           parts := Fsa_seq.Dna.random rng spacer_len :: core :: !parts)
         cores;
       Fsa_seq.Dna.concat (List.rev !parts)
     in
     let contigs prefix pieces dna =
       let n = Fsa_seq.Dna.length dna in
       List.init pieces (fun i ->
           let lo = i * n / pieces and hi = (i + 1) * n / pieces in
           {
             Fsa_genome.Fragmentation.name = Printf.sprintf "%s%d" prefix i;
             dna = Fsa_seq.Dna.sub dna ~pos:lo ~len:(hi - lo);
             regions = [];
             true_offset = lo;
             true_reversed = false;
           })
     in
     let h = contigs "h" 3 (genome ~mutate:0.01 ~core_indels:0 ~invert_every:0) in
     let m = contigs "m" 7 (genome ~mutate:0.02 ~core_indels:4 ~invert_every:9) in
     (h, m))

let discovery_genome_size () =
  let h, m = Lazy.force discovery_pair in
  List.fold_left
    (fun n (c : Fsa_genome.Fragmentation.contig) ->
      n + Fsa_seq.Dna.length c.Fsa_genome.Fragmentation.dna)
    0 (h @ m)
  / 2

(* The index build alone, on either side of the split width: the 7 M
   contigs of the discovery pair (about 49 000 minimizers, a 6-bit split)
   and one 4 kb target (about 750, one sort). *)
let seed_index_bench ~name targets =
  Test.make ~name
    (Staged.stage (fun () -> ignore (Fsa_align.Seed.index_targets ~k:12 targets)))

let seed_index_discovery_bench () =
  let _, m = Lazy.force discovery_pair in
  seed_index_bench
    ~name:(Printf.sprintf "seed index %dkb" (discovery_genome_size () / 1024))
    (Array.of_list (List.map (fun (c : Fsa_genome.Fragmentation.contig) -> c.dna) m))

let seed_index_random_bench len =
  seed_index_bench
    ~name:(Printf.sprintf "seed index %db" len)
    [| Fsa_seq.Dna.random (Rng.create 10) len |]

let band_fallbacks_probe = Fsa_obs.Metric.Counter.make "band.fallbacks"

let discovery_bench () =
  let h, m = Lazy.force discovery_pair in
  Test.make
    ~name:(Printf.sprintf "discovery chained %dkb" (discovery_genome_size () / 1024))
    (Staged.stage (fun () ->
         Fsa_obs.Metric.Counter.add band_fallbacks_probe 0;
         ignore (Fsa_genome.Pipeline.discovery_instance ~h ~m ())))

(* CSR_Improve on the discovery pair's instance, built once outside the
   timed body: the solver layer of a `chromosome`-sized job.  solve_best
   releases the instance's memo on exit, so each run rebuilds its tables,
   as a job does. *)
let csr_improve_discovered_bench () =
  let h, m = Lazy.force discovery_pair in
  let inst = (Fsa_genome.Pipeline.discovery_instance ~h ~m ()).Fsa_genome.Pipeline.instance in
  Test.make
    ~name:(Printf.sprintf "csr_improve discovered %dkb" (discovery_genome_size () / 1024))
    (Staged.stage (fun () -> ignore (Fsa_csr.Csr_improve.solve_best inst)))

let four_approx_bench () =
  let rng = Rng.create 11 in
  let inst =
    Fsa_csr.Instance.random_planted rng ~regions:20 ~h_fragments:5 ~m_fragments:5
      ~inversion_rate:0.2 ~noise_pairs:10
  in
  Test.make ~name:"ISP 4-approx (20 regions)"
    (Staged.stage (fun () -> ignore (Fsa_csr.One_csr.four_approx inst)))

let exact_bench () =
  let rng = Rng.create 12 in
  let inst =
    Fsa_csr.Instance.random_planted rng ~regions:9 ~h_fragments:3 ~m_fragments:3
      ~inversion_rate:0.2 ~noise_pairs:4
  in
  Test.make ~name:"exact solver (3x3 fragments)"
    (Staged.stage (fun () -> ignore (Fsa_csr.Exact.solve_exn inst)))

(* Benches whose sub-millisecond body GC pauses scatter get a longer
   quota: more samples at large run counts steady the OLS fit (at the
   default quota the CSR_Improve row read r² 0.83–0.94 and the tpa_fill
   row 0.86–0.90 over three runs).  The discovery bench's body took
   ~0.1 s before minimizer sampling, when the default quota fitted only 4
   runs; at ~30 ms, 8× gives it over 20.  The discovered instance's
   ~35 ms solve read r² 0.876 at a quarter of the default quota, and
   0.957–0.985 over 14–15 runs at 4×.  The 260 kb index build took
   ~20 ms and fitted 9 runs at the default quota; at ~6 ms, 2× gives it
   over 20. *)
let long_quota =
  [
    ("CSR_Improve paper example", 4.0);
    ("tpa_fill (96 regions)", 4.0);
    ("discovery chained 260kb", 8.0);
    ("csr_improve discovered 260kb", 4.0);
    ("seed index 260kb", 2.0);
  ]

let test_list () =
  [
    p_score_bench 32;
    p_score_bench 128;
    tpa_bench 20 50;
    tpa_bench 80 50;
    hungarian_bench 32;
    hungarian_bench 64;
    seed_extend_bench 4096;
    seed_extend_bench 16384;
    seed_index_random_bench 4096;
    seed_index_discovery_bench ();
    csr_improve_bench ();
    full_improve_bench ();
    tpa_fill_bench ();
    four_approx_bench ();
    sparse_four_approx_bench ~regions:64 ~frags:16;
    sparse_four_approx_bench ~regions:128 ~frags:32;
    sparse_greedy_bench ~regions:64 ~frags:16;
    portfolio_bench ~regions:64 ~frags:16 ~deadline_ms:5;
    portfolio_bench ~regions:128 ~frags:32 ~deadline_ms:10;
    discovery_bench ();
    csr_improve_discovered_bench ();
    exact_bench ();
  ]

(* Machine-readable bench results, diffable across PRs.  FSA_BENCH_OUT
   redirects the output so tools/benchgate can record a fresh candidate
   without clobbering the committed baseline. *)
let bench_json_path () =
  match Sys.getenv_opt "FSA_BENCH_OUT" with
  | Some p when String.trim p <> "" -> p
  | _ -> "BENCH_solvers.json"

(* Provenance: prefer GIT_REV (set by CI) over asking git, fall back to
   "unknown" outside any checkout. *)
let git_rev () =
  match Sys.getenv_opt "GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with Unix.Unix_error _ | Sys_error _ -> "unknown")

let iso_timestamp () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_bench_json ~quick ~quota ~counters_of rows =
  let module J = Fsa_obs.Json in
  let benches =
    List.map
      (fun (name, ns, r2, runs, calls) ->
        J.Obj
          ([ ("name", J.String name); ("ns_per_run", J.Float ns);
             ( "r_square",
               match r2 with Some r -> J.Float r | None -> J.Null );
             ("runs", J.Int runs); ("calls", J.Int calls) ]
          @
          (* Per-bench registry counters (the registry is reset between
             benches), summed over all [calls]; readers of fsa-bench/1
             ignore unknown fields. *)
          match counters_of name with
          | [] -> []
          | cs ->
              [ ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) cs)) ]))
      rows
  in
  let doc =
    J.Obj
      [ ("schema", J.String "fsa-bench/1");
        ( "config",
          J.Obj
            [ ("quota_s", J.Float quota); ("limit", J.Int 2000);
              ("quick", J.Bool quick);
              ("cores", J.Int (Domain.recommended_domain_count ()));
              ("git_rev", J.String (git_rev ()));
              ("timestamp", J.String (iso_timestamp ())) ] );
        ("benches", J.List benches) ]
  in
  let path = bench_json_path () in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nbench results written to %s\n" path

let run ~quick () =
  Printf.printf "\n== timing benches (Bechamel, monotonic clock) ==\n\n";
  let quota = if quick then 0.25 else 1.0 in
  let cfg_for test =
    let scale =
      Option.value ~default:1.0 (List.assoc_opt (Test.name test) long_quota)
    in
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (scale *. quota))
      ~kde:(Some 1000) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  (* Observe the whole run so the cmatch.* cache/prune counters below
     reflect the measured workloads.  Each bench runs separately: its
     counters are recorded per bench (and folded into grand totals for the
     summary), and the registry is reset so the next bench starts from
     zero. *)
  let registry = Fsa_obs.Registry.create () in
  let totals : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let bench_counters : (string, (string * float) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let raw : (string, Benchmark.t) Hashtbl.t = Hashtbl.create 64 in
  Fsa_obs.Runtime.with_observation ~registry (fun () ->
      (* Building the list runs set-up work (the discovered instance, the
         index builds) whose counters belong to no bench. *)
      let tests = test_list () in
      Fsa_obs.Registry.reset ();
      List.iter
        (fun test ->
          let grouped = Test.make_grouped ~name:"fsa" ~fmt:"%s %s" [ test ] in
          let r = Benchmark.all (cfg_for test) instances grouped in
          let counters = Fsa_obs.Registry.counters registry in
          (* Gauges ride along in the per-bench counter map (pool.skew —
             the busiest/idlest slot ratio — lands in the (Nd) tiers), but
             stay out of [totals]: summing a ratio across benches is
             meaningless. *)
          let recorded = counters @ Fsa_obs.Registry.gauges registry in
          Hashtbl.iter
            (fun name b ->
              Hashtbl.replace raw name b;
              Hashtbl.replace bench_counters name recorded)
            r;
          List.iter
            (fun (name, v) ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
              Hashtbl.replace totals name (prev +. v))
            counters;
          Fsa_obs.Registry.reset ())
        tests);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Fsa_util.Tablefmt.create
      [ ("bench", Fsa_util.Tablefmt.Left); ("time/run", Fsa_util.Tablefmt.Right);
        ("r²", Fsa_util.Tablefmt.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> nan
      in
      (* [runs] counts Bechamel's samples; [calls] counts invocations of
         the bench body — each sample makes its run-count of them, each
         KDE measurement one — which is what the counters are summed over. *)
      let runs, calls =
        match Hashtbl.find_opt raw name with
        | Some (b : Benchmark.t) ->
            ( b.Benchmark.stats.Benchmark.samples,
              Array.fold_left
                (fun n m -> n + int_of_float (Measurement_raw.run m))
                0 b.Benchmark.lr
              + Option.fold ~none:0 ~some:Array.length b.Benchmark.kde )
        | None -> (0, 0)
      in
      rows := (name, ns, Analyze.OLS.r_square ols, runs, calls) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns, r2, _runs, _calls) ->
      let r2 =
        match r2 with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Fsa_util.Tablefmt.add_row table [ name; Fsa_obs.Report.pretty_ns ns; r2 ])
    rows;
  Fsa_util.Tablefmt.print table;
  (* Grand totals across benches (the live registry was reset per bench). *)
  let c name = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
  let builds = c "cmatch.table_builds"
  and hits = c "cmatch.cache_hits"
  and evs = c "cmatch.evictions"
  and checks = c "cmatch.bound_checks"
  and pruned = c "cmatch.pruned" in
  let rate num den = if den > 0.0 then 100.0 *. num /. den else 0.0 in
  Printf.printf
    "\ncmatch: %.0f table builds, %.0f cache hits (%.1f%% hit rate), %.0f \
     evictions\n\
     prune: %.0f/%.0f pairs pruned (%.1f%%), %.0f attempts refused\n"
    builds hits
    (rate hits (builds +. hits))
    evs pruned checks (rate pruned checks) (c "improve.pruned");
  let counters_of name =
    Option.value ~default:[] (Hashtbl.find_opt bench_counters name)
  in
  write_bench_json ~quick ~quota ~counters_of rows
