(* csr_solve: solve a CSR instance from a text file (or stdin).

   Instance format (see Fsa_csr.Instance.of_text):
     H h1: a b c
     M m1: s t
     S a s 4          # sigma(a, s) = 4
     S b t' 3         # sigma(b, t reversed) = 3

   Example:
     dune exec bin/csr_solve.exe -- --algorithm csr-improve --trace /tmp/t.jsonl \
       --stats instance.txt *)

open Cmdliner
open Fsa_csr

type algorithm =
  | Csr_improve_a
  | Full_improve_a
  | Border_improve_a
  | Four_approx_a
  | Matching_a
  | Greedy_a
  | Exact_a
  | Best_a

let algorithms =
  [
    ("csr-improve", Csr_improve_a);
    ("full-improve", Full_improve_a);
    ("border-improve", Border_improve_a);
    ("four-approx", Four_approx_a);
    ("matching", Matching_a);
    ("greedy", Greedy_a);
    ("exact", Exact_a);
    ("best", Best_a);
  ]

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

(* Exit code 2: bad input (missing/unreadable/malformed instance file). *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("csr_solve: error: " ^ msg); exit 2) fmt

(* Exit code 3: a solver produced an invalid solution — a bug in this
   program, not in the input; reported as a message rather than a crash so
   scripted callers can tell the two apart. *)
let die_internal fmt =
  Printf.ksprintf
    (fun msg -> prerr_endline ("csr_solve: internal error: " ^ msg); exit 3)
    fmt

let load_instance path =
  let text =
    match path with
    | "-" -> read_all stdin
    | p -> (
        try
          let ic = open_in p in
          let s = read_all ic in
          close_in ic;
          s
        with Sys_error msg -> die "cannot read instance file: %s" msg)
  in
  try Instance.of_text text with
  | Failure msg -> die "malformed instance %s: %s" (if path = "-" then "(stdin)" else path) msg
  | Invalid_argument msg ->
      die "malformed instance %s: %s" (if path = "-" then "(stdin)" else path) msg

let setup_observation trace stats stats_json flight =
  let flight_state =
    match flight with
    | Some file ->
        (* An unwritable path fails here, as --trace does, not at the
           first dump after the solve. *)
        (try close_out (open_out file)
         with Sys_error msg -> die "cannot open flight-recorder file: %s" msg);
        let fr = Fsa_obs.Flight.create () in
        (* Dump on budget trips (with the trip as the last event), and at
           exit if nothing else dumped first. *)
        ignore (Fsa_obs.Flight.arm fr ~path:file);
        at_exit (fun () ->
            if Fsa_obs.Flight.dumps fr = 0 then
              try Fsa_obs.Flight.dump ~reason:"exit" fr file
              with Sys_error msg ->
                prerr_endline
                  ("csr_solve: error: cannot write flight-recorder dump: " ^ msg));
        Some (fr, file)
    | None -> None
  in
  let trace_sink =
    match trace with
    | Some file ->
        let sink =
          try Fsa_obs.Sink.jsonl file
          with Sys_error msg -> die "cannot open trace file: %s" msg
        in
        at_exit (fun () -> sink.Fsa_obs.Sink.close ());
        Some sink
    | None -> None
  in
  (match (trace_sink, flight_state) with
  | Some t, Some (fr, _) ->
      Fsa_obs.Runtime.set_sink (Some (Fsa_obs.Sink.tee t (Fsa_obs.Flight.sink fr)))
  | Some t, None -> Fsa_obs.Runtime.set_sink (Some t)
  | None, Some (fr, _) -> Fsa_obs.Runtime.set_sink (Some (Fsa_obs.Flight.sink fr))
  | None, None -> ());
  if stats || stats_json <> None then begin
    let reg = Fsa_obs.Registry.create () in
    Fsa_obs.Runtime.set_registry (Some reg);
    at_exit (fun () ->
        (match stats_json with
        | Some file -> (
            try Fsa_obs.Report.write_json file reg
            with Sys_error msg ->
              prerr_endline ("csr_solve: error: cannot write stats file: " ^ msg))
        | None -> ());
        if stats then begin
          print_newline ();
          Fsa_obs.Report.print reg
        end)
  end;
  flight_state

let outcome_to_string = function
  | Fsa_portfolio.Portfolio.Completed -> "completed"
  | Fsa_portfolio.Portfolio.Tripped `Wall_clock -> "tripped (wall clock)"
  | Fsa_portfolio.Portfolio.Tripped `Probes -> "tripped (probes)"
  | Fsa_portfolio.Portfolio.Skipped reason -> "skipped: " ^ reason

let run_portfolio ~deadline_ms ~probes ~epsilon inst =
  let module P = Fsa_portfolio.Portfolio in
  let report =
    try P.solve ?deadline:(Option.map (fun ms -> ms /. 1000.0) deadline_ms) ?probes ~epsilon inst
    with Invalid_argument msg -> die "%s" msg
  in
  Format.printf "portfolio: answered by %s in %.1f ms%s%s@."
    (P.tier_to_string report.P.answered)
    (report.P.elapsed_s *. 1000.0)
    (if report.P.deadline_hit then " (deadline hit)" else "")
    (match report.P.exact_score with
    | Some s when report.P.optimal -> Printf.sprintf " — certified optimal (%.4g)" s
    | Some s -> Printf.sprintf " — exact optimum %.4g not reached" s
    | None -> "");
  List.iter
    (fun (a : P.attempt) ->
      Format.printf "  %-12s %-24s%s%s@."
        (P.tier_to_string a.P.tier)
        (outcome_to_string a.P.outcome)
        (match a.P.score with
        | Some s -> Printf.sprintf " score %.4g" s
        | None -> "")
        (match a.P.epsilon with
        | Some e -> Printf.sprintf " (scaled, eps=%.3g)" e
        | None -> ""))
    report.P.attempts;
  report.P.solution

let solve algorithm portfolio deadline_ms portfolio_probes show_conjecture scaled
    epsilon output trace stats stats_json flight path =
  if scaled then (
    try Improve.check_epsilon "--epsilon" epsilon with Invalid_argument msg -> die "%s" msg);
  let flight_state = setup_observation trace stats stats_json flight in
  let inst = load_instance path in
  (* An uncaught solver exception dumps the flight ring before it
     propagates — the tail of the event stream leading up to the crash. *)
  let with_flight_dump f =
    match flight_state with
    | None -> f ()
    | Some (fr, file) -> (
        try f ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Fsa_obs.Flight.note fr "flight.exception" 1.0;
          (try
             Fsa_obs.Flight.dump ~reason:("exception: " ^ Printexc.to_string e)
               fr file
           with Sys_error _ -> ());
          Printexc.raise_with_backtrace e bt)
  in
  let sol =
    with_flight_dump @@ fun () ->
    if portfolio then
      Some (run_portfolio ~deadline_ms ~probes:portfolio_probes ~epsilon inst)
    else
    match algorithm with
    | Csr_improve_a ->
        if scaled then Some (Csr_improve.solve_scaled ~epsilon inst)
        else Some (fst (Csr_improve.solve inst))
    | Full_improve_a ->
        if scaled then Some (Full_improve.solve_scaled ~epsilon inst)
        else Some (fst (Full_improve.solve inst))
    | Border_improve_a ->
        if scaled then Some (Border_improve.solve_scaled ~epsilon inst)
        else Some (fst (Border_improve.solve inst))
    | Four_approx_a -> Some (One_csr.four_approx inst)
    | Matching_a -> Some (Border_improve.matching_2approx inst)
    | Greedy_a -> Some (Greedy.solve inst)
    | Best_a -> Some (Csr_improve.solve_best inst)
    | Exact_a ->
        let _, hl, ml =
          match Exact.solve inst with
          | Ok r -> r
          | Error (`Budget_exceeded n) ->
              die "instance too large for the exact solver (%d layout pairs)" n
        in
        Format.printf "exact optimum: %.4g@." (Conjecture.score_of_layouts inst hl ml);
        (* report the layout and stop: the exact solver's witness is a
           layout, not a match set *)
        let show side (l : Conjecture.layout) =
          String.concat " "
            (Array.to_list
               (Array.mapi
                  (fun i f ->
                    let n = Fsa_seq.Fragment.name (Instance.fragment inst side f) in
                    if l.Conjecture.reversed.(i) then n ^ "'" else n)
                  l.Conjecture.order))
        in
        Format.printf "H layout: %s@.M layout: %s@." (show Species.H hl)
          (show Species.M ml);
        None
  in
  match sol with
  | None -> ()
  | Some sol ->
      (match Solution.validate sol with
      | Ok () -> ()
      | Error e -> die_internal "inconsistent solution: %s" e);
      Format.printf "%a@." Solution.pp sol;
      (match output with
      | Some out ->
          let oc = open_out out in
          output_string oc (Solution.to_text sol);
          close_out oc;
          Format.printf "solution written to %s@." out
      | None -> ());
      if show_conjecture then begin
        match Conjecture.of_solution sol with
        | Ok conj ->
            Format.printf "@.H row: %a@.M row: %a@." Fsa_seq.Padded.pp
              conj.Conjecture.h_row Fsa_seq.Padded.pp conj.Conjecture.m_row
        | Error (Conjecture.Invalid_solution msg) ->
            die_internal "solution has no conjecture layout: %s" msg
      end

let algorithm_arg =
  let doc =
    Printf.sprintf "Algorithm: %s."
      (String.concat ", " (List.map fst algorithms))
  in
  Arg.(value & opt (enum algorithms) Best_a & info [ "a"; "algorithm" ] ~doc)

let portfolio_arg =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Run the anytime portfolio scheduler (greedy, four-approx, \
           full-improve, csr-improve, exact certificate) instead of a single \
           algorithm; combine with $(b,--deadline-ms).")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Latency budget for $(b,--portfolio), in milliseconds.")

let portfolio_probes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "portfolio-probes" ] ~docv:"N"
        ~doc:"Checkpoint-probe budget for $(b,--portfolio).")

let conjecture_arg =
  Arg.(value & flag & info [ "c"; "conjecture" ] ~doc:"Print the conjecture pair rows.")

let scaled_arg =
  Arg.(value & flag & info [ "scaled" ] ~doc:"Apply the Chandra-Halldorsson scaling wrapper.")

let epsilon_arg =
  Arg.(value & opt float 0.05 & info [ "epsilon" ] ~doc:"Scaling precision parameter.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the solution (reload with Solution.of_text).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL trace (spans, improvement moves, phases) to $(docv).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Collect span/counter/histogram telemetry and print a summary table.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Keep a ring buffer of the last trace events and dump it (JSONL, \
           schema fsa-flight/1, readable by fsa_trace summarize) to $(docv) \
           on a budget trip, on an uncaught solver error, or at exit.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Serialize the telemetry report (schema fsa-obs-report/1) to $(docv).")

let path_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file ('-' for stdin).")

let cmd =
  let doc = "solve consensus sequence reconstruction (CSR) instances" in
  Cmd.v
    (Cmd.info "csr_solve" ~doc)
    Term.(
      const solve $ algorithm_arg $ portfolio_arg $ deadline_ms_arg
      $ portfolio_probes_arg $ conjecture_arg $ scaled_arg $ epsilon_arg
      $ output_arg $ trace_arg $ stats_arg $ stats_json_arg $ flight_arg
      $ path_arg)

let () = exit (Cmd.eval cmd)
