(* Telemetry subsystem tests: span nesting, counter aggregation across
   registry swaps, JSONL round-trips, and the zero-interference guarantee
   (instrumented solvers return bit-identical solutions). *)

open Fsa_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.Float 2.5);
        ("c", Json.String "x\"y\n");
        ("d", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  let j' = Json.of_string (Json.to_string j) in
  check_bool "roundtrip" true (j = j')

let test_json_special_floats () =
  check_string "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_string "inf is null" "null" (Json.to_string (Json.Float Float.infinity));
  check_string "float keeps fraction" "4.0" (Json.to_string (Json.Float 4.0))

let test_json_malformed () =
  check_bool "garbage" true (Json.of_string_opt "{oops" = None);
  check_bool "trailing" true (Json.of_string_opt "1 2" = None)

(* ------------------------------------------------------------------ *)
(* Event codec: every variant must round-trip through to_json/of_json. *)

(* Compile-time exhaustiveness guard: adding an Event.t variant breaks
   this match, which is the reminder to extend [roundtrip_events]. *)
let _all_event_variants_covered : Event.t -> unit = function
  | Event.Span_begin _ | Event.Span_end _ | Event.Phase _ | Event.Move _
  | Event.Step _ | Event.Note _ ->
      ()

let roundtrip_events =
  [
    Event.Span_begin { name = "plain"; depth = 0 };
    Event.Span_begin { name = ""; depth = 17 };
    Event.Span_begin { name = "quote\"backslash\\newline\n"; depth = 3 };
    Event.Span_end
      {
        name = "s";
        depth = 2;
        elapsed_ns = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
      };
    Event.Span_end
      {
        name = "big";
        depth = 0;
        elapsed_ns = 9.75e12;
        minor_words = 1.5e9;
        major_words = 0.25;
      };
    Event.Phase { name = "solve" };
    Event.Phase { name = "" };
    Event.Move
      {
        solver = "csr_improve";
        round = 0;
        label = "accepted move";
        accepted = true;
        score_before = -3.5;
        score_after = 12.25;
      };
    Event.Move
      {
        solver = "full_improve";
        round = 100000;
        label = "rejected";
        accepted = false;
        score_before = 7.0;
        score_after = 7.0;
      };
    Event.Step { solver = "s"; round = 1; evaluated = 0; score = 0.0 };
    Event.Step
      { solver = "s"; round = 4096; evaluated = 123456; score = -0.125 };
    Event.Note { name = "epsilon"; value = 0.05 };
    Event.Note { name = "negative"; value = -1e6 };
  ]

let test_event_roundtrip_exhaustive () =
  List.iter
    (fun ev ->
      (* Through the Json tree... *)
      (match Event.of_json (Event.to_json ev) with
      | Some ev' -> check_bool "tree roundtrip" true (ev = ev')
      | None -> Alcotest.failf "of_json rejected %s" (Json.to_string (Event.to_json ev)));
      (* ...and through the serialized text, as a sink would write it. *)
      match Event.of_json (Json.of_string (Json.to_string (Event.to_json ev))) with
      | Some ev' -> check_bool "text roundtrip" true (ev = ev')
      | None -> Alcotest.fail "of_json rejected serialized event")
    roundtrip_events

let test_event_of_json_rejects_malformed () =
  let rejected j = check_bool "rejected" true (Event.of_json j = None) in
  rejected (Json.Obj [ ("type", Json.String "wibble") ]);
  rejected (Json.Obj [ ("name", Json.String "no type") ]);
  rejected Json.Null;
  rejected (Json.String "span_begin");
  (* Each variant with one required field missing. *)
  rejected (Json.Obj [ ("type", Json.String "span_begin"); ("depth", Json.Int 0) ]);
  rejected
    (Json.Obj
       [ ("type", Json.String "span_end"); ("name", Json.String "s");
         ("depth", Json.Int 0); ("minor_words", Json.Float 0.0);
         ("major_words", Json.Float 0.0) ]);
  rejected (Json.Obj [ ("type", Json.String "phase") ]);
  rejected
    (Json.Obj
       [ ("type", Json.String "move"); ("solver", Json.String "s");
         ("round", Json.Int 1); ("label", Json.String "l");
         ("score_before", Json.Float 0.0); ("score_after", Json.Float 1.0) ]);
  rejected
    (Json.Obj
       [ ("type", Json.String "step"); ("solver", Json.String "s");
         ("round", Json.Int 1); ("score", Json.Float 1.0) ]);
  rejected (Json.Obj [ ("type", Json.String "note"); ("value", Json.Float 1.0) ])

let test_event_of_json_ignores_unknown_fields () =
  let j =
    Json.Obj
      [ ("ts", Json.Float 0.25); ("type", Json.String "phase");
        ("name", Json.String "p"); ("extra", Json.List []) ]
  in
  check_bool "transport fields ignored" true
    (Event.of_json j = Some (Event.Phase { name = "p" }))

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  let sink, events = Sink.memory () in
  let registry = Registry.create () in
  Runtime.with_observation ~sink ~registry (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ());
          Span.with_ ~name:"inner" (fun () -> ())));
  let names =
    List.map
      (function
        | Event.Span_begin { name; depth } -> Printf.sprintf "+%s@%d" name depth
        | Event.Span_end { name; depth; _ } -> Printf.sprintf "-%s@%d" name depth
        | _ -> "?")
      (events ())
  in
  Alcotest.(check (list string))
    "nesting order"
    [ "+outer@0"; "+inner@1"; "-inner@1"; "+inner@1"; "-inner@1"; "-outer@0" ]
    names;
  match Registry.span_summary registry "inner" with
  | None -> Alcotest.fail "inner span not recorded"
  | Some s ->
      check_int "inner count" 2 s.Registry.span_count;
      check_bool "total ns nonneg" true (s.Registry.span_total_ns >= 0.0)

(* An array past the minor heap's size limit is allocated straight into
   the major heap; the span must count it at once, not at the next major
   slice. *)
let test_span_major_words () =
  let registry = Registry.create () in
  Runtime.with_observation ~registry (fun () ->
      Span.with_ ~name:"big" (fun () ->
          ignore (Sys.opaque_identity (Array.make 50_000 0.0))));
  match Registry.span_summary registry "big" with
  | None -> Alcotest.fail "big span not recorded"
  | Some s ->
      check_bool
        (Printf.sprintf "major words %.0f >= 50000" s.Registry.span_major_words)
        true
        (s.Registry.span_major_words >= 50_000.0)

let test_span_exception_safe () =
  let sink, events = Sink.memory () in
  Runtime.with_observation ~sink (fun () ->
      (try Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
      check_int "depth restored" 0 (Span.current_depth ()));
  let ends =
    List.filter (function Event.Span_end _ -> true | _ -> false) (events ())
  in
  check_int "span_end emitted despite raise" 1 (List.length ends)

(* ------------------------------------------------------------------ *)
(* Metrics and registry swaps *)

let test_counter_aggregation () =
  let r1 = Registry.create () in
  let r2 = Registry.create () in
  let c = Metric.Counter.make "test.hits" in
  Runtime.with_observation ~registry:r1 (fun () ->
      Metric.Counter.incr c;
      Metric.Counter.add c 4);
  Runtime.with_observation ~registry:r2 (fun () -> Metric.Counter.incr c);
  check_bool "r1 total" true (Registry.counter_value r1 "test.hits" = Some 5.0);
  check_bool "r2 independent" true (Registry.counter_value r2 "test.hits" = Some 1.0);
  (* With no registry installed, metric ops are no-ops. *)
  Metric.Counter.incr c;
  check_bool "r1 unchanged when off" true
    (Registry.counter_value r1 "test.hits" = Some 5.0)

(* With nothing installed, the hot-path telemetry calls must not allocate:
   solver inner loops make thousands of them per solve. *)
let test_disabled_allocates_nothing () =
  let c = Metric.Counter.make "alloc.c" and h = Metric.Histogram.make "alloc.h" in
  let thunk () = () in
  let minor_words_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let calls = 10_000 in
  List.iter
    (fun (what, f) -> check_float what 0.0 (minor_words_of f))
    [
      ("Counter.incr", fun () -> for _ = 1 to calls do Metric.Counter.incr c done);
      ("Counter.add", fun () -> for i = 1 to calls do Metric.Counter.add c i done);
      ( "Histogram.observe_int",
        fun () -> for i = 1 to calls do Metric.Histogram.observe_int h i done );
      ( "Span.with_",
        fun () -> for _ = 1 to calls do Span.with_ ~name:"alloc.s" thunk done );
      ("Budget.check", fun () -> for _ = 1 to calls do Budget.check () done);
    ]

let test_gauge_and_histogram () =
  let r = Registry.create () in
  Runtime.with_observation ~registry:r (fun () ->
      Metric.Gauge.set (Metric.Gauge.make "test.g") 7.0;
      let h = Metric.Histogram.make "test.h" in
      List.iter (Metric.Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ]);
  check_bool "gauge" true (Registry.gauge_value r "test.g" = Some 7.0);
  match Registry.histogram_summary r "test.h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      check_int "count" 4 h.Registry.count;
      check_float "mean" 2.5 h.Registry.mean;
      check_float "p50" 2.5 h.Registry.p50

(* ------------------------------------------------------------------ *)
(* Sinks: JSONL round-trip *)

let sample_events =
  [
    Event.Span_begin { name = "s"; depth = 0 };
    Event.Phase { name = "solve" };
    Event.Move
      {
        solver = "csr_improve";
        round = 3;
        label = "border match";
        accepted = true;
        score_before = 1.25;
        score_after = 2.75;
      };
    Event.Step { solver = "csr_improve"; round = 4; evaluated = 17; score = 2.75 };
    Event.Note { name = "n"; value = 0.125 };
    Event.Span_end
      {
        name = "s";
        depth = 0;
        elapsed_ns = 1234.5;
        minor_words = 100.0;
        major_words = 0.0;
      };
  ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "fsa_obs_test" ".jsonl" in
  let sink = Sink.jsonl path in
  List.iter sink.Sink.emit sample_events;
  sink.Sink.close ();
  let lines = read_lines path in
  Sys.remove path;
  check_int "header + one line per event"
    (1 + List.length sample_events)
    (List.length lines);
  let header, event_lines =
    match lines with h :: rest -> (h, rest) | [] -> Alcotest.fail "empty file"
  in
  (match Json.member "schema" (Json.of_string header) with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "fsa-trace/2" s
  | _ -> Alcotest.fail "missing schema header");
  let parsed =
    List.map
      (fun line ->
        let j = Json.of_string line in
        check_bool "ts present" true (Json.member "ts" j <> None);
        check_bool "domain present" true (Json.member "domain" j <> None);
        match Event.of_json j with
        | Some ev -> ev
        | None -> Alcotest.fail ("unparseable event line: " ^ line))
      event_lines
  in
  check_bool "events round-trip" true (parsed = sample_events)

let test_tee_and_memory () =
  let s1, ev1 = Sink.memory () in
  let s2, ev2 = Sink.memory () in
  let t = Sink.tee s1 s2 in
  t.Sink.emit (Event.Phase { name = "p" });
  t.Sink.close ();
  check_int "first copy" 1 (List.length (ev1 ()));
  check_int "second copy" 1 (List.length (ev2 ()))

let test_buffer_sink_bounded () =
  let sink, drain, dropped = Sink.buffer ~capacity:3 () in
  for i = 1 to 5 do
    sink.Sink.emit (Event.Note { name = "n"; value = float_of_int i })
  done;
  let kept = drain () in
  check_int "keeps the first capacity events" 3 (List.length kept);
  check_int "counts the rest as dropped" 2 (dropped ());
  match kept with
  | { Sink.s_event = Event.Note { value; _ }; _ } :: _ ->
      check_float "oldest event kept" 1.0 value
  | _ -> Alcotest.fail "expected the first note"

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring () =
  let fr = Flight.create ~capacity:4 () in
  let sink = Flight.sink fr in
  for i = 1 to 10 do
    sink.Sink.emit (Event.Note { name = "ev"; value = float_of_int i })
  done;
  check_int "recorded all" 10 (Flight.recorded fr);
  check_int "overflow dropped" 6 (Flight.dropped fr);
  let evs = Flight.events fr in
  check_int "retains capacity" 4 (List.length evs);
  (match evs with
  | { Sink.s_event = Event.Note { value; _ }; _ } :: _ ->
      check_float "oldest retained is event 7" 7.0 value
  | _ -> Alcotest.fail "expected a note");
  match Flight.last_event fr with
  | Some { Sink.s_event = Event.Note { value; _ }; _ } ->
      check_float "last retained is event 10" 10.0 value
  | _ -> Alcotest.fail "expected a note"

let test_flight_dump_readable () =
  let fr = Flight.create ~capacity:4 () in
  let sink = Flight.sink fr in
  for i = 1 to 6 do
    sink.Sink.emit (Event.Note { name = "ev"; value = float_of_int i })
  done;
  let path = Filename.temp_file "fsa_flight" ".jsonl" in
  Flight.dump ~reason:"test" fr path;
  let t = Trace.of_file path in
  Sys.remove path;
  check_int "events parse back" 4 t.Trace.events;
  check_int "header is metadata, not a skip" 0 t.Trace.skipped;
  check_int "one dump recorded" 1 (Flight.dumps fr)

let test_flight_dump_on_budget_trip () =
  let path = Filename.temp_file "fsa_flight" ".jsonl" in
  let fr = Flight.create () in
  let hook = Flight.arm fr ~path in
  Runtime.with_observation ~sink:(Flight.sink fr) (fun () ->
      let b = Budget.create ~probes:3 () in
      let outcome =
        Budget.run b
          ~partial:(fun () -> ())
          (fun () ->
            let i = ref 0 in
            while true do
              incr i;
              Runtime.emit (Event.Note { name = "probe"; value = float_of_int !i });
              Budget.check ()
            done)
      in
      check_bool "budget tripped" true
        (match outcome with
        | Error (`Budget_exceeded ((), `Probes)) -> true
        | _ -> false));
  Flight.disarm hook;
  check_int "trip dumped exactly once" 1 (Flight.dumps fr);
  (* The dump's last event must identify the trip site. *)
  (match Flight.last_event fr with
  | Some { Sink.s_event = Event.Note { name; _ }; _ } ->
      check_string "trip marker is the last ring event"
        "flight.budget_trip.probes" name
  | _ -> Alcotest.fail "expected the trip marker");
  let lines = read_lines path in
  Sys.remove path;
  (match lines with
  | header :: _ -> (
      match Json.member "reason" (Json.of_string header) with
      | Some (Json.String r) -> check_string "reason" "budget_trip:probes" r
      | _ -> Alcotest.fail "dump header has no reason")
  | [] -> Alcotest.fail "empty dump");
  match List.rev lines with
  | last :: _ -> (
      match Event.of_json (Json.of_string last) with
      | Some (Event.Note { name; _ }) ->
          check_string "last dumped line is the trip marker"
            "flight.budget_trip.probes" name
      | _ -> Alcotest.fail "last dump line is not the trip note")
  | [] -> assert false

(* An armed recorder whose path cannot be written must not raise from
   inside the checkpoint: the trip still reaches [Budget.run] as a typed
   partial, and the failed dump is counted. *)
let test_flight_unwritable_path () =
  let not_a_dir = Filename.temp_file "fsa_flight" ".file" in
  let fr = Flight.create () in
  let hook = Flight.arm fr ~path:(Filename.concat not_a_dir "fd.jsonl") in
  let registry = Registry.create () in
  let outcome =
    Runtime.with_observation ~registry (fun () ->
        Budget.run (Budget.create ~probes:0 ()) ~partial:(fun () -> ()) Budget.check)
  in
  Flight.disarm hook;
  Sys.remove not_a_dir;
  check_bool "budget outcome" true
    (match outcome with Error (`Budget_exceeded ((), `Probes)) -> true | _ -> false);
  check_bool "dump error counted" true
    (Registry.counter_value registry "flight.dump_errors" = Some 1.0)

(* ------------------------------------------------------------------ *)
(* Zero interference: instrumentation must not change solver output *)

let small_instance seed =
  let rng = Fsa_util.Rng.create seed in
  Fsa_csr.Instance.random_planted rng ~regions:8 ~h_fragments:4 ~m_fragments:4
    ~inversion_rate:0.2 ~noise_pairs:6

let test_null_sink_identical_results () =
  List.iter
    (fun seed ->
      let inst = small_instance seed in
      let plain = Fsa_csr.Solution.score (Fsa_csr.Csr_improve.solve_best inst) in
      let observed =
        Runtime.with_observation ~sink:Sink.null ~registry:(Registry.create ())
          (fun () -> Fsa_csr.Solution.score (Fsa_csr.Csr_improve.solve_best inst))
      in
      check_float "score identical under null sink" plain observed)
    [ 11; 42; 99 ]

let test_solver_trace_has_spans_and_moves () =
  let inst = small_instance 7 in
  let sink, events = Sink.memory () in
  Runtime.with_observation ~sink (fun () ->
      ignore (Fsa_csr.Csr_improve.solve inst));
  let evs = events () in
  let spans =
    List.exists (function Event.Span_begin _ -> true | _ -> false) evs
  in
  let moves =
    List.exists
      (function Event.Move { accepted = true; _ } -> true | _ -> false)
      evs
  in
  check_bool "at least one span" true spans;
  check_bool "at least one accepted move" true moves

let test_observation_restored () =
  Runtime.with_observation ~sink:Sink.null (fun () ->
      check_bool "tracing inside" true (Runtime.tracing ()));
  check_bool "tracing restored" false (Runtime.tracing ());
  check_bool "observing restored" false (Runtime.observing ())

let contains_sub text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry reset between workloads *)

let test_registry_reset () =
  let r = Registry.create () in
  Runtime.with_observation ~registry:r (fun () ->
      Metric.Counter.add (Metric.Counter.make "reset.c") 3;
      Metric.Gauge.set (Metric.Gauge.make "reset.g") 2.0;
      Span.with_ ~name:"reset.span" (fun () -> ());
      Registry.reset ();
      (* Metric handles survive the reset; new increments land fresh. *)
      Metric.Counter.incr (Metric.Counter.make "reset.c"));
  check_bool "counter restarted" true (Registry.counter_value r "reset.c" = Some 1.0);
  check_bool "gauge cleared" true (Registry.gauge_value r "reset.g" = None);
  check_bool "span totals cleared" true (Registry.span_summary r "reset.span" = None);
  (* No registry installed: reset is a harmless no-op. *)
  Registry.reset ()

(* ------------------------------------------------------------------ *)
(* Export: the span-tree line cap *)

let test_export_max_lines () =
  let events =
    List.concat_map
      (fun i ->
        let name = Printf.sprintf "s%d" i in
        [
          (None, Event.Span_begin { name; depth = 0 });
          ( None,
            Event.Span_end
              {
                name;
                depth = 0;
                elapsed_ns = 1000.0;
                minor_words = 0.0;
                major_words = 0.0;
              } );
        ])
      (List.init 10 (fun i -> i))
  in
  let t = Trace.of_events events in
  let full = Export.summary t in
  let capped = Export.summary ~max_lines:4 t in
  let contains needle text = contains_sub text needle in
  check_bool "full tree lists every span" true (contains "s9" full);
  check_bool "full tree not truncated" false (contains "more node(s)" full);
  check_bool "capped tree truncated" true (contains "6 more node(s)" capped);
  check_bool "capped drops the tail" false (contains "s9  1.00 us" capped);
  (* The aggregated profile still covers suppressed nodes. *)
  check_bool "profile keeps all rows" true (contains "| s9" capped)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "special floats" `Quick test_json_special_floats;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
        ] );
      ( "event",
        [
          Alcotest.test_case "roundtrip exhaustive" `Quick
            test_event_roundtrip_exhaustive;
          Alcotest.test_case "rejects malformed" `Quick
            test_event_of_json_rejects_malformed;
          Alcotest.test_case "ignores unknown fields" `Quick
            test_event_of_json_ignores_unknown_fields;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "direct major allocation" `Quick test_span_major_words;
        ] );
      ( "metric",
        [
          Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "disabled telemetry allocates nothing" `Quick
            test_disabled_allocates_nothing;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "tee and memory" `Quick test_tee_and_memory;
          Alcotest.test_case "buffer sink bounded" `Quick test_buffer_sink_bounded;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring retention" `Quick test_flight_ring;
          Alcotest.test_case "dump readable" `Quick test_flight_dump_readable;
          Alcotest.test_case "dump on budget trip" `Quick
            test_flight_dump_on_budget_trip;
          Alcotest.test_case "unwritable path still trips" `Quick
            test_flight_unwritable_path;
        ] );
      ( "integration",
        [
          Alcotest.test_case "null sink identical" `Quick
            test_null_sink_identical_results;
          Alcotest.test_case "trace has spans and moves" `Quick
            test_solver_trace_has_spans_and_moves;
          Alcotest.test_case "observation restored" `Quick test_observation_restored;
          Alcotest.test_case "registry reset" `Quick test_registry_reset;
        ] );
      ( "export",
        [ Alcotest.test_case "max lines cap" `Quick test_export_max_lines ] );
    ]
