(* fsa_trace: analyze JSONL traces recorded with --trace (fsa-trace/2,
   headerless v1 files still read) and flight-recorder dumps
   (fsa-flight/1, from csr_solve --flight-recorder).  Multi-domain traces
   get a per-domain table in summarize, one Chrome track per domain in
   export-chrome, and d<N>-prefixed folded stacks in flame.

   Subcommands:
     summarize FILE          span-tree profile + per-solver round stats
     diff BASE CAND          per-span time deltas; exit 1 above threshold
     export-chrome FILE      Chrome Trace Event JSON (chrome://tracing, Perfetto)
     flame FILE              folded stacks for flamegraph.pl

   Examples:
     dune exec bin/csr_solve.exe -- --trace t.jsonl instance.txt
     dune exec bin/fsa_trace.exe -- summarize t.jsonl
     dune exec bin/fsa_trace.exe -- export-chrome t.jsonl -o chrome_trace.json *)

open Cmdliner
module Trace = Fsa_obs.Trace
module Export = Fsa_obs.Export

(* Exit code 2: bad input (unreadable trace file). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("fsa_trace: error: " ^ msg);
      exit 2)
    fmt

let load path =
  try
    let t = Trace.of_file path in
    if t.Trace.events = 0 && t.Trace.skipped > 0 then
      die "%s contains no parseable trace events (%d line(s) skipped)" path
        t.Trace.skipped;
    t
  with Sys_error msg -> die "cannot read trace: %s" msg

let write_output out text =
  match out with
  | None -> print_string text
  | Some file -> (
      try
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.eprintf "written to %s\n" file
      with Sys_error msg -> die "cannot write output: %s" msg)

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let summarize top path = print_string (Export.summary ~max_lines:top (load path))

let diff threshold min_ms base cand =
  let b = load base and c = load cand in
  let text, flagged =
    Export.diff_table ~threshold ~min_ns:(min_ms *. 1e6) b c
  in
  print_string text;
  if flagged > 0 then begin
    Printf.printf
      "%d span(s) moved more than %+.0f%% (and more than %g ms): REGRESSION?\n"
      flagged (100.0 *. threshold) min_ms;
    exit 1
  end
  else
    Printf.printf "no span moved more than %.0f%% (threshold) and %g ms\n"
      (100.0 *. threshold) min_ms

let export_chrome path out =
  let t = load path in
  write_output out (Fsa_obs.Json.to_string (Export.chrome t) ^ "\n")

let flame path out = write_output out (Export.folded (load path))

(* ------------------------------------------------------------------ *)
(* CLI plumbing *)

let trace_pos ?(docv = "TRACE") n =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc:"JSONL trace file.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

let threshold_arg =
  Arg.(
    value & opt float 0.25
    & info [ "threshold" ] ~docv:"REL"
        ~doc:"Relative per-span change that counts as a regression (0.25 = 25%).")

let min_ms_arg =
  Arg.(
    value & opt float 1.0
    & info [ "min-ms" ] ~docv:"MS"
        ~doc:
          "Ignore spans whose absolute change is below $(docv) milliseconds \
           (micro-span noise).")

let top_arg =
  Arg.(
    value & opt int 200
    & info [ "top" ] ~docv:"N"
        ~doc:
          "Print at most $(docv) span-tree lines (suppressed nodes are still \
           counted in the aggregated profile).")

let summarize_cmd =
  Cmd.v
    (Cmd.info "summarize" ~doc:"print the span-tree profile of a trace")
    Term.(const summarize $ top_arg $ trace_pos 0)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "compare two traces per span name; exits 1 if any span moved beyond \
          the threshold")
    Term.(
      const diff $ threshold_arg $ min_ms_arg $ trace_pos ~docv:"BASE" 0
      $ trace_pos ~docv:"CAND" 1)

let export_chrome_cmd =
  Cmd.v
    (Cmd.info "export-chrome"
       ~doc:
         "emit Chrome Trace Event JSON (load in chrome://tracing or \
          ui.perfetto.dev)")
    Term.(const export_chrome $ trace_pos 0 $ out_arg)

let flame_cmd =
  Cmd.v
    (Cmd.info "flame"
       ~doc:"emit folded stacks (pipe into flamegraph.pl --countname ns)")
    Term.(const flame $ trace_pos 0 $ out_arg)

let cmd =
  Cmd.group
    (Cmd.info "fsa_trace" ~doc:"analyze JSONL solver traces")
    [ summarize_cmd; diff_cmd; export_chrome_cmd; flame_cmd ]

let () = exit (Cmd.eval cmd)
