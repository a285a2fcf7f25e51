(* Trace-analysis toolkit tests: span-tree reconstruction from event
   streams, aggregation, chrome/folded exports, trace diffing, and the
   fsa_trace / benchgate CLIs end-to-end. *)

open Fsa_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Event stream fixtures *)

let span_begin name = Event.Span_begin { name; depth = 0 }

let span_end ?(minor = 0.0) ?(major = 0.0) name ns =
  Event.Span_end
    { name; depth = 0; elapsed_ns = ns; minor_words = minor; major_words = major }

let no_ts evs = List.map (fun e -> (None, e)) evs

(* ------------------------------------------------------------------ *)
(* Span-tree reconstruction *)

let test_tree_structure () =
  let t =
    Trace.of_events
      (no_ts
         [
           span_begin "root";
           span_begin "child";
           span_end "child" 1e6 ~minor:100.0;
           span_begin "child";
           span_end "child" 0.5e6 ~minor:50.0;
           span_end "root" 3e6 ~minor:400.0;
         ])
  in
  check_int "one root" 1 (List.length t.Trace.roots);
  let root = List.hd t.Trace.roots in
  check_string "root name" "root" root.Trace.name;
  check_float "root total" 3e6 root.Trace.total_ns;
  check_float "root self" 1.5e6 (Trace.self_ns root);
  check_float "root self minor" 250.0 (Trace.self_minor_words root);
  check_int "two children" 2 (List.length root.Trace.children);
  check_float "wall = root total" 3e6 (Trace.wall_ns t);
  check_int "three span ends" 3 (Trace.span_ends t);
  check_int "nothing unclosed" 0 t.Trace.unclosed

let test_unclosed_and_orphan_spans () =
  (* A begin with no end (truncated trace), and an end with no begin
     (trace attached mid-run): both must survive parsing. *)
  let t =
    Trace.of_events
      (no_ts [ span_end "orphan" 2e6; span_begin "open"; span_begin "inner";
               span_end "inner" 1e6 ])
  in
  check_int "two roots" 2 (List.length t.Trace.roots);
  check_int "one unclosed" 1 t.Trace.unclosed;
  let open_node = List.nth t.Trace.roots 1 in
  check_bool "open not closed" false open_node.Trace.closed;
  check_float "open total = children" 1e6 open_node.Trace.total_ns;
  (* Orphan span_end still counts as a complete span. *)
  check_int "span ends" 2 (Trace.span_ends t)

let test_mismatched_end_closes_right_frame () =
  (* An end whose name is below the stack top closes the right frame and
     abandons the frames above it. *)
  let t =
    Trace.of_events
      (no_ts [ span_begin "outer"; span_begin "leaked"; span_end "outer" 5e6 ])
  in
  check_int "one root" 1 (List.length t.Trace.roots);
  let root = List.hd t.Trace.roots in
  check_string "root is outer" "outer" root.Trace.name;
  check_bool "outer closed" true root.Trace.closed;
  check_int "leaked is a child" 1 (List.length root.Trace.children);
  check_bool "leaked unclosed" false
    (List.hd root.Trace.children).Trace.closed;
  check_int "unclosed count" 1 t.Trace.unclosed

let test_of_string_skips_garbage () =
  let text =
    String.concat "\n"
      [
        {|{"type":"span_begin","name":"s","depth":0,"ts":0.5}|};
        "this is not json";
        {|{"type":"wibble"}|};
        "";
        {|{"type":"span_end","name":"s","depth":0,"elapsed_ns":1000.0,"minor_words":1.0,"major_words":0.0}|};
      ]
  in
  let t = Trace.of_string text in
  check_int "two events" 2 t.Trace.events;
  check_int "two skipped" 2 t.Trace.skipped;
  check_int "one root" 1 (List.length t.Trace.roots);
  check_bool "begin ts recorded" true
    ((List.hd t.Trace.roots).Trace.begin_ts = Some 0.5)

let test_solver_round_stats () =
  let move round accepted before after =
    Event.Move
      {
        solver = "s1";
        round;
        label = "l";
        accepted;
        score_before = before;
        score_after = after;
      }
  in
  let t =
    Trace.of_events
      (no_ts
         [
           move 1 true 0.0 2.0;
           move 1 false 2.0 1.0;
           move 2 true 2.0 5.0;
           Event.Step { solver = "s1"; round = 2; evaluated = 7; score = 5.0 };
           Event.Move
             {
               solver = "s2";
               round = 1;
               label = "x";
               accepted = true;
               score_before = 1.0;
               score_after = 1.5;
             };
         ])
  in
  check_int "two solvers" 2 (List.length t.Trace.solvers);
  let s1 = List.hd t.Trace.solvers in
  check_string "sorted by name" "s1" s1.Trace.solver;
  check_int "s1 moves" 3 s1.Trace.moves;
  check_int "s1 accepted" 2 s1.Trace.accepted;
  check_float "s1 net delta (accepted only)" 5.0 s1.Trace.net_delta;
  check_int "s1 rounds" 2 (List.length s1.Trace.rounds);
  let r2 = List.nth s1.Trace.rounds 1 in
  check_int "round number" 2 r2.Trace.round;
  check_int "round evaluated" 7 r2.Trace.evaluated;
  check_bool "round end score" true (r2.Trace.end_score = Some 5.0)

(* ------------------------------------------------------------------ *)
(* Aggregation, diff *)

let test_profile_recursion_no_double_count () =
  let t =
    Trace.of_events
      (no_ts
         [
           span_begin "f"; span_begin "f"; span_end "f" 1e6; span_end "f" 3e6;
         ])
  in
  match Trace.profile t with
  | [ row ] ->
      check_int "two calls" 2 row.Trace.calls;
      check_float "total counts outermost only" 3e6 row.Trace.row_total_ns;
      check_float "self sums both" 3e6 row.Trace.row_self_ns
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_diff_identical_trace () =
  let t =
    Trace.of_events
      (no_ts [ span_begin "a"; span_begin "b"; span_end "b" 1e6; span_end "a" 4e6 ])
  in
  List.iter
    (fun d ->
      check_float "no delta" 0.0 (Trace.delta_total_ns d);
      check_float "no rel delta" 0.0 (Trace.delta_rel d))
    (Trace.diff t t);
  let _, flagged = Export.diff_table t t in
  check_int "nothing flagged" 0 flagged

let test_diff_flags_large_move () =
  let mk ns =
    Trace.of_events (no_ts [ span_begin "hot"; span_end "hot" ns ])
  in
  let _, flagged = Export.diff_table (mk 10e6) (mk 25e6) in
  check_int "2.5x on 10ms span flagged" 1 flagged;
  (* Below the absolute floor, even a big relative move is noise. *)
  let _, flagged = Export.diff_table (mk 10e3) (mk 25e3) in
  check_int "micro span not flagged" 0 flagged

(* ------------------------------------------------------------------ *)
(* Exports *)

let count_complete_events json =
  match Json.member "traceEvents" json with
  | Some (Json.List evs) ->
      List.length
        (List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) evs)
  | _ -> Alcotest.fail "missing traceEvents"

let test_chrome_export () =
  let t =
    Trace.of_events
      (no_ts
         [
           span_begin "root"; span_begin "kid"; span_end "kid" 1e6;
           span_end "root" 2e6; span_begin "open_forever";
           Event.Phase { name = "p1" };
         ])
  in
  let json = Export.chrome t in
  (* Round-trips through the serializer. *)
  let json' = Json.of_string (Json.to_string json) in
  check_int "one X event per span_end" (Trace.span_ends t)
    (count_complete_events json');
  check_int "which is 2" 2 (count_complete_events json')

let test_chrome_synthetic_timestamps_nest () =
  (* Without recorded ts, children must be laid out inside the parent. *)
  let t =
    Trace.of_events
      (no_ts [ span_begin "p"; span_begin "c"; span_end "c" 1e6; span_end "p" 2e6 ])
  in
  match Json.member "traceEvents" (Export.chrome t) with
  | Some (Json.List [ p; c ]) ->
      let f key e =
        match Json.member key e with
        | Some v -> Option.get (Json.to_float_opt v)
        | None -> Alcotest.fail ("missing " ^ key)
      in
      check_bool "child starts at/after parent" true (f "ts" c >= f "ts" p);
      check_bool "child ends before parent" true
        (f "ts" c +. f "dur" c <= f "ts" p +. f "dur" p +. 1e-6)
  | _ -> Alcotest.fail "expected exactly two events"

let test_folded_stacks () =
  let t =
    Trace.of_events
      (no_ts
         [
           span_begin "a"; span_begin "b"; span_end "b" 1e6;
           span_begin "b"; span_end "b" 2e6; span_end "a" 4e6;
         ])
  in
  let lines = String.split_on_char '\n' (String.trim (Export.folded t)) in
  Alcotest.(check (list string))
    "folded lines" [ "a 1000000"; "a;b 3000000" ] lines

let test_summary_mentions_wall_and_solver () =
  let t =
    Trace.of_events
      (no_ts
         [
           span_begin "solve"; span_end "solve" 2.5e9;
           Event.Move
             {
               solver = "demo";
               round = 1;
               label = "m";
               accepted = true;
               score_before = 0.0;
               score_after = 1.0;
             };
         ])
  in
  let s = Export.summary t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "prints wall time" true (contains "wall 2.50 s" s);
  check_bool "prints solver table" true (contains "solver demo" s)

(* ------------------------------------------------------------------ *)
(* Multi-domain traces (fsa-trace/2) *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Two domains interleaved: each domain keeps its own open-span stack, so
   d1's span must not nest under d0's open root. *)
let two_domain_events =
  [
    (Some 0.0, 0, span_begin "caller");
    (Some 0.1, 1, span_begin "worker");
    (Some 0.2, 1, span_end "worker" 1e6);
    (Some 0.3, 0, span_end "caller" 2e6);
  ]

let test_v2_header_and_domain_field () =
  let text =
    String.concat "\n"
      [
        {|{"schema":"fsa-trace/2"}|};
        {|{"type":"span_begin","name":"caller","depth":0,"ts":0.0,"domain":0}|};
        {|{"type":"span_begin","name":"worker","depth":0,"ts":0.1,"domain":1}|};
        {|{"type":"span_end","name":"worker","depth":0,"elapsed_ns":1e6,"minor_words":0.0,"major_words":0.0,"domain":1}|};
        {|{"type":"span_end","name":"caller","depth":0,"elapsed_ns":2e6,"minor_words":0.0,"major_words":0.0,"domain":0}|};
      ]
  in
  let t = Trace.of_string text in
  check_int "header is not a skip" 0 t.Trace.skipped;
  check_int "four events" 4 t.Trace.events;
  Alcotest.(check (list int)) "two domains" [ 0; 1 ] (Trace.domains t);
  (* Per-domain stacks: two roots, one per domain, neither nested. *)
  check_int "two roots" 2 (List.length t.Trace.roots);
  let d0 = List.nth t.Trace.roots 0 and d1 = List.nth t.Trace.roots 1 in
  check_string "domain 0 root" "caller" d0.Trace.name;
  check_int "d0 slot" 0 d0.Trace.domain;
  check_int "caller has no children" 0 (List.length d0.Trace.children);
  check_string "domain 1 root" "worker" d1.Trace.name;
  check_int "d1 slot" 1 d1.Trace.domain

let test_domainless_lines_default_to_zero () =
  let text =
    {|{"type":"span_begin","name":"s","depth":0}|} ^ "\n"
    ^ {|{"type":"span_end","name":"s","depth":0,"elapsed_ns":1000.0,"minor_words":0.0,"major_words":0.0}|}
  in
  let t = Trace.of_string text in
  Alcotest.(check (list int)) "v1 trace is all domain 0" [ 0 ] (Trace.domains t);
  check_int "d0 slot" 0 (List.hd t.Trace.roots).Trace.domain

let test_chrome_multi_domain_tracks () =
  let json = Export.chrome (Trace.of_events_domains two_domain_events) in
  match Json.member "traceEvents" json with
  | Some (Json.List evs) ->
      let tids_of ph =
        List.filter_map
          (fun e ->
            if Json.member "ph" e = Some (Json.String ph) then
              Option.bind (Json.member "tid" e) Json.to_int_opt
            else None)
          evs
      in
      Alcotest.(check (list int))
        "one track per domain (tid = domain + 1)" [ 1; 2 ]
        (List.sort_uniq compare (tids_of "X"));
      (* thread_name metadata names each track. *)
      check_int "two thread_name records" 2 (List.length (tids_of "M"))
  | _ -> Alcotest.fail "missing traceEvents"

let test_folded_multi_domain_prefix () =
  let folded =
    String.trim (Export.folded (Trace.of_events_domains two_domain_events))
  in
  let lines = List.sort compare (String.split_on_char '\n' folded) in
  Alcotest.(check (list string))
    "d<N> root frames" [ "d0;caller 2000000"; "d1;worker 1000000" ] lines

let test_summary_domain_table () =
  let multi = Export.summary (Trace.of_events_domains two_domain_events) in
  check_bool "multi-domain summary has a domains table" true
    (contains "-- domains --" multi);
  check_bool "lists the worker domain" true (contains "worker" multi);
  (* Single-domain summaries keep the old layout, no domains section. *)
  let single =
    Export.summary (Trace.of_events (no_ts [ span_begin "s"; span_end "s" 1e6 ]))
  in
  check_bool "single-domain summary unchanged" false
    (contains "-- domains --" single)

(* ------------------------------------------------------------------ *)
(* CLI end-to-end: csr_solve --trace | fsa_trace | benchgate *)

let exe name =
  let dir = Filename.dirname Sys.executable_name in
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  Filename.concat dir (Filename.concat Filename.parent_dir_name name)

let run_cmd cmd =
  let out = Filename.temp_file "fsa_trace_test" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let paper_instance_text =
  Fsa_csr.Instance.to_text (Fsa_csr.Instance.paper_example ())

let record_trace () =
  let inst = Filename.temp_file "fsa_inst" ".txt" in
  write_file inst paper_instance_text;
  let trace = Filename.temp_file "fsa" ".trace.jsonl" in
  let code, out =
    run_cmd
      (Printf.sprintf "%s --algorithm full-improve --trace %s %s"
         (Filename.quote (exe (Filename.concat "bin" "csr_solve.exe")))
         (Filename.quote trace) (Filename.quote inst))
  in
  Sys.remove inst;
  if code <> 0 then Alcotest.failf "csr_solve failed (%d): %s" code out;
  trace

let test_cli_summarize_root_matches_wall () =
  let trace_file = record_trace () in
  let t = Trace.of_file trace_file in
  check_bool "trace has roots" true (t.Trace.roots <> []);
  check_int "no unclosed spans" 0 t.Trace.unclosed;
  (* The profile's root total is the recorded wall time. *)
  let root = List.hd t.Trace.roots in
  check_float "root total = wall" (Trace.wall_ns t) root.Trace.total_ns;
  let code, out =
    run_cmd
      (Printf.sprintf "%s summarize %s"
         (Filename.quote (exe (Filename.concat "bin" "fsa_trace.exe")))
         (Filename.quote trace_file))
  in
  check_int "summarize exit 0" 0 code;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* Wall time printed in the header equals the root span's total. *)
  check_bool "summary shows the recorded wall time" true
    (contains ("wall " ^ Report.pretty_ns (Trace.wall_ns t)) out);
  check_bool "summary shows the root span" true (contains "full_improve.solve" out);
  Sys.remove trace_file

let test_cli_export_chrome () =
  let trace_file = record_trace () in
  let t = Trace.of_file trace_file in
  let out_json = Filename.temp_file "fsa_chrome" ".json" in
  let code, out =
    run_cmd
      (Printf.sprintf "%s export-chrome %s -o %s"
         (Filename.quote (exe (Filename.concat "bin" "fsa_trace.exe")))
         (Filename.quote trace_file) (Filename.quote out_json))
  in
  if code <> 0 then Alcotest.failf "export-chrome failed (%d): %s" code out;
  let ic = open_in out_json in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out_json;
  (* Must be parseable JSON with one complete event per span_end. *)
  let json = Json.of_string text in
  check_int "one X per span_end" (Trace.span_ends t) (count_complete_events json);
  Sys.remove trace_file

(* Two recordings of one run differ in timing alone, and on a loaded host
   scheduling moves 1.5–15 ms spans by more than the diff's 25 % and 1 ms
   floor, so they are compared only on what timing cannot move: span names
   and call counts.  The CLI must find nothing to flag between a trace and
   a byte copy of it; "diff flags large moves" covers the threshold
   itself. *)
let test_cli_diff_same_run_quiet () =
  let t1 = record_trace () and t2 = record_trace () in
  let copy = Filename.temp_file "fsa" ".trace.jsonl" in
  let ic = open_in_bin t1 in
  write_file copy (really_input_string ic (in_channel_length ic));
  close_in ic;
  let code, out =
    run_cmd
      (Printf.sprintf "%s diff %s %s"
         (Filename.quote (exe (Filename.concat "bin" "fsa_trace.exe")))
         (Filename.quote t1) (Filename.quote copy))
  in
  if code <> 0 then Alcotest.failf "diff flagged a copy of the trace: %s" out;
  check_bool "diff lists the run's spans" true (contains "full_improve.solve" out);
  let shape file =
    Trace.profile (Trace.of_file file)
    |> List.map (fun (r : Trace.row) -> (r.Trace.row_name, r.Trace.calls))
    |> List.sort compare
  in
  let s1 = shape t1 and s2 = shape t2 in
  List.iter Sys.remove [ t1; t2; copy ];
  check_bool "the run has spans" true (s1 <> []);
  Alcotest.(check (list (pair string int))) "same span names and counts" s1 s2

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let fsa_trace_exe () = Filename.quote (exe (Filename.concat "bin" "fsa_trace.exe"))

let test_cli_summarize_top () =
  let trace_file = record_trace () in
  let code, full =
    run_cmd (Printf.sprintf "%s summarize %s" (fsa_trace_exe ()) (Filename.quote trace_file))
  in
  check_int "summarize exit 0" 0 code;
  let code, capped =
    run_cmd
      (Printf.sprintf "%s summarize --top 2 %s" (fsa_trace_exe ())
         (Filename.quote trace_file))
  in
  Sys.remove trace_file;
  check_int "summarize --top exit 0" 0 code;
  check_bool "default output not truncated" false (contains_sub full "more node(s)");
  check_bool "--top 2 truncates the tree" true (contains_sub capped "more node(s)");
  (* The aggregated profile survives the cap. *)
  check_bool "--top keeps the hot-spans table" true (contains_sub capped "hot spans")

(* ------------------------------------------------------------------ *)
(* benchgate *)

let bench_doc benches =
  Printf.sprintf
    {|{"schema":"fsa-bench/1","config":{"quota_s":1.0,"limit":2000,"quick":false,"git_rev":"deadbeef","timestamp":"2026-08-06T00:00:00Z"},"benches":[%s]}|}
    (String.concat ","
       (List.map
          (fun (name, ns) ->
            Printf.sprintf
              {|{"name":"%s","ns_per_run":%f,"r_square":0.95,"runs":100}|} name
              ns)
          benches))

let run_benchgate args =
  run_cmd
    (Printf.sprintf "%s %s"
       (Filename.quote (exe (Filename.concat "tools" "benchgate.exe")))
       args)

let test_benchgate_self_compare_ok () =
  let f = Filename.temp_file "bench_base" ".json" in
  write_file f (bench_doc [ ("fast kernel", 1000.0); ("slow kernel", 5e6) ]);
  let code, out =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote f)
         (Filename.quote f))
  in
  Sys.remove f;
  if code <> 0 then Alcotest.failf "self-compare failed: %s" out;
  check_int "identical docs pass" 0 code

let test_benchgate_committed_baseline_self_compare () =
  (* The committed baseline compared against itself must always gate 0. *)
  let path = Filename.concat Filename.parent_dir_name "BENCH_solvers.json" in
  check_bool "committed baseline present (dune dep)" true (Sys.file_exists path);
  let code, out =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote path)
         (Filename.quote path))
  in
  if code <> 0 then Alcotest.failf "baseline self-compare failed: %s" out;
  check_int "committed baseline passes against itself" 0 code

let test_benchgate_detects_2x_regression () =
  let base = Filename.temp_file "bench_base" ".json" in
  let cand = Filename.temp_file "bench_cand" ".json" in
  write_file base (bench_doc [ ("fast kernel", 1000.0); ("slow kernel", 5e6) ]);
  (* One bench slowed 2x, the other untouched. *)
  write_file cand (bench_doc [ ("fast kernel", 1000.0); ("slow kernel", 10e6) ]);
  let code, out =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  Sys.remove base;
  Sys.remove cand;
  check_int "2x slowdown exits 1" 1 code;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "names the regression" true (contains "REGRESSED" out)

let test_benchgate_noisy_bench_gets_slack () =
  (* r_square 0.5 and 8 runs: a 40% wobble is within the widened allowance,
     but can never stretch past the 75% cap. *)
  let noisy ns =
    Printf.sprintf
      {|{"schema":"fsa-bench/1","config":{"quick":false},"benches":[{"name":"noisy","ns_per_run":%f,"r_square":0.5,"runs":8}]}|}
      ns
  in
  let base = Filename.temp_file "bench_base" ".json" in
  let cand = Filename.temp_file "bench_cand" ".json" in
  write_file base (noisy 1000.0);
  write_file cand (noisy 1400.0);
  let code, _ =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  check_int "40%% wobble tolerated on a noisy bench" 0 code;
  write_file cand (noisy 2000.0);
  let code, _ =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  Sys.remove base;
  Sys.remove cand;
  check_int "2x regression fails even on a noisy bench" 1 code

let test_benchgate_deadline_ceiling () =
  (* A bench named "... @Nms" carries the anytime contract: the candidate
     must answer within 2×N ms, as an absolute ceiling — even when the
     baseline is equally slow (no grandfathering) and even when the bench
     is new in the candidate. *)
  let base = Filename.temp_file "bench_base" ".json" in
  let cand = Filename.temp_file "bench_cand" ".json" in
  let blown = 25e6 (* 25 ms > 2 × 10 ms *) in
  write_file base (bench_doc [ ("portfolio (64r) @10ms", blown) ]);
  write_file cand (bench_doc [ ("portfolio (64r) @10ms", blown) ]);
  let code, out =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  check_int "equal-but-blown deadline still fails" 1 code;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "names the blown deadline" true (contains "DEADLINE BLOWN" out);
  (* Within the ceiling: 15 ms < 2 × 10 ms passes on its own merits. *)
  write_file cand (bench_doc [ ("portfolio (64r) @10ms", 15e6) ]);
  write_file base (bench_doc [ ("portfolio (64r) @10ms", 14e6) ]);
  let code, _ =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  check_int "inside the ceiling passes" 0 code;
  (* A new candidate-only bench is still held to its ceiling. *)
  write_file base (bench_doc [ ("other bench", 1000.0) ]);
  write_file cand
    (bench_doc [ ("other bench", 1000.0); ("portfolio (new) @10ms", blown) ]);
  let code, _ =
    run_benchgate
      (Printf.sprintf "--baseline %s --candidate %s" (Filename.quote base)
         (Filename.quote cand))
  in
  Sys.remove base;
  Sys.remove cand;
  check_int "new bench with a blown deadline fails" 1 code

let test_benchgate_timing_table () =
  (* One row per bench in document order: the "fsa" group prefix dropped,
     three significant digits, and a weak label below r² 0.9 or 10 runs;
     an r² just under the line keeps the digits that show it. *)
  let f = Filename.temp_file "bench_base" ".json" in
  write_file f
    {|{"schema":"fsa-bench/1","config":{"quick":false},"benches":[
      {"name":"fsa p_score 32x32","ns_per_run":85970.3,"r_square":0.99335,"runs":112},
      {"name":"fsa seed+extend 4096b","ns_per_run":899688.5,"r_square":0.8999909,"runs":43},
      {"name":"discovery","ns_per_run":100845242.3,"r_square":0.5,"runs":4},
      {"name":"no fit","ns_per_run":999.0,"runs":30}]}|};
  let code, out = run_benchgate ("--timing-table --baseline " ^ Filename.quote f) in
  Sys.remove f;
  check_int "exits 0" 0 code;
  check_string "rows"
    "| bench | time/run | r² | runs | |\n\
     |---|---|---|---|---|\n\
     | `p_score 32x32` | 86.0 µs | 0.993 | 112 |  |\n\
     | `seed+extend 4096b` | 900 µs | 0.89999 | 43 | **weak:** r² < 0.9 |\n\
     | `discovery` | 101 ms | 0.500 | 4 | **weak:** r² < 0.9, < 10 runs |\n\
     | `no fit` | 999 ns | — | 30 | **weak:** no r² |\n"
    out

let test_benchgate_timing_table_in_experiments () =
  (* EXPERIMENTS.md quotes the committed baseline's Timing rows verbatim. *)
  let code, table =
    run_benchgate
      ("--timing-table --baseline "
      ^ Filename.quote (Filename.concat Filename.parent_dir_name "BENCH_solvers.json"))
  in
  check_int "exits 0" 0 code;
  let ic = open_in (Filename.concat Filename.parent_dir_name "EXPERIMENTS.md") in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  if not (contains table doc) then
    Alcotest.failf "EXPERIMENTS.md lacks the generated Timing table:\n%s" table

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fsa_trace"
    [
      ( "tree",
        [
          Alcotest.test_case "structure and self time" `Quick test_tree_structure;
          Alcotest.test_case "unclosed and orphan spans" `Quick
            test_unclosed_and_orphan_spans;
          Alcotest.test_case "mismatched end" `Quick
            test_mismatched_end_closes_right_frame;
          Alcotest.test_case "garbage lines skipped" `Quick
            test_of_string_skips_garbage;
          Alcotest.test_case "solver round stats" `Quick test_solver_round_stats;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "recursion not double counted" `Quick
            test_profile_recursion_no_double_count;
          Alcotest.test_case "diff of identical trace" `Quick
            test_diff_identical_trace;
          Alcotest.test_case "diff flags large moves" `Quick
            test_diff_flags_large_move;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome complete events" `Quick test_chrome_export;
          Alcotest.test_case "chrome synthetic nesting" `Quick
            test_chrome_synthetic_timestamps_nest;
          Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
          Alcotest.test_case "summary text" `Quick
            test_summary_mentions_wall_and_solver;
        ] );
      ( "domains",
        [
          Alcotest.test_case "v2 header and domain field" `Quick
            test_v2_header_and_domain_field;
          Alcotest.test_case "v1 lines default to domain 0" `Quick
            test_domainless_lines_default_to_zero;
          Alcotest.test_case "chrome one track per domain" `Quick
            test_chrome_multi_domain_tracks;
          Alcotest.test_case "folded d<N> prefix" `Quick
            test_folded_multi_domain_prefix;
          Alcotest.test_case "summary domains table" `Quick
            test_summary_domain_table;
        ] );
      ( "cli",
        [
          Alcotest.test_case "summarize root = wall" `Quick
            test_cli_summarize_root_matches_wall;
          Alcotest.test_case "export-chrome" `Quick test_cli_export_chrome;
          Alcotest.test_case "diff same run" `Quick test_cli_diff_same_run_quiet;
          Alcotest.test_case "summarize --top" `Quick test_cli_summarize_top;
        ] );
      ( "benchgate",
        [
          Alcotest.test_case "self compare ok" `Quick
            test_benchgate_self_compare_ok;
          Alcotest.test_case "committed baseline vs itself" `Quick
            test_benchgate_committed_baseline_self_compare;
          Alcotest.test_case "2x regression caught" `Quick
            test_benchgate_detects_2x_regression;
          Alcotest.test_case "noise-aware slack" `Quick
            test_benchgate_noisy_bench_gets_slack;
          Alcotest.test_case "deadline ceiling on @Nms benches" `Quick
            test_benchgate_deadline_ceiling;
          Alcotest.test_case "timing table" `Quick test_benchgate_timing_table;
          Alcotest.test_case "timing table in EXPERIMENTS.md" `Quick
            test_benchgate_timing_table_in_experiments;
        ] );
    ]
