(* Domain pool and domain-safety tests: the fan-out/merge contract
   (chunk coverage, slot order, exception propagation, inline fallbacks),
   the cross-domain determinism suite (every CSR solver's output and
   counters identical at FSA_DOMAINS ∈ {1, 2, 4}), the pinned fuzz corpus
   under parallelism, and the regression tests for the shared-mutable-state
   bug class: budget isolation, solves from other domains (alone and two
   at once on one instance), knob validation, registry merge. *)

open Fsa_csr
module Pool = Fsa_parallel.Pool
module Budget = Fsa_obs.Budget
module Registry = Fsa_obs.Registry
module Rng = Fsa_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Pool basics                                                          *)

let test_parse_domains () =
  check_bool "ok" true (Pool.parse_domains "4" = Ok 4);
  check_bool "trimmed" true (Pool.parse_domains " 2 " = Ok 2);
  check_bool "zero rejected" true (Result.is_error (Pool.parse_domains "0"));
  check_bool "negative rejected" true (Result.is_error (Pool.parse_domains "-3"));
  check_bool "huge rejected" true (Result.is_error (Pool.parse_domains "100000"));
  check_bool "garbage rejected" true (Result.is_error (Pool.parse_domains "four"));
  check_bool "empty rejected" true (Result.is_error (Pool.parse_domains ""))

let test_set_domains_validation () =
  let rejects n =
    match Pool.set_domains n with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "0 rejected" true (rejects 0);
  check_bool "-1 rejected" true (rejects (-1));
  check_bool "513 rejected" true (rejects 513);
  let before = Pool.domains () in
  (try Pool.set_domains 0 with Invalid_argument _ -> ());
  check_int "rejected set leaves the knob alone" before (Pool.domains ())

let test_with_domains_restores () =
  let before = Pool.domains () in
  Pool.with_domains 3 (fun () -> check_int "inside" 3 (Pool.domains ()));
  check_int "restored" before (Pool.domains ());
  (try Pool.with_domains 2 (fun () -> failwith "boom") with Failure _ -> ());
  check_int "restored on exception" before (Pool.domains ())

let test_fan_out_coverage () =
  List.iter
    (fun d ->
      Pool.with_domains d (fun () ->
          List.iter
            (fun n ->
              let slots =
                Pool.fan_out ~n ~chunk:(fun ~slot ~lo ~hi -> (slot, lo, hi))
              in
              check_bool
                (Printf.sprintf "d=%d n=%d: at most d slots" d n)
                true
                (Array.length slots <= max 1 d);
              (* Slots in index order, contiguous, covering exactly [0, n). *)
              let expected_next = ref 0 in
              Array.iteri
                (fun i (slot, lo, hi) ->
                  check_int "slot order" i slot;
                  check_int "contiguous" !expected_next lo;
                  check_bool "nonempty-or-empty range" true (lo <= hi);
                  expected_next := hi)
                slots;
              check_int (Printf.sprintf "d=%d n=%d: covers [0,n)" d n) n
                !expected_next)
            [ 1; 2; 3; 7; 64 ]))
    [ 1; 2; 4 ]

let test_fan_out_empty () =
  Pool.with_domains 4 (fun () ->
      check_int "n=0 yields no slots" 0
        (Array.length (Pool.fan_out ~n:0 ~chunk:(fun ~slot ~lo:_ ~hi:_ -> slot))))

let test_static_slot_domain_mapping () =
  (* Slot s must land on the same domain in every batch, so a repeat of
     the same fan-out runs chunk s with the same domain-local state.  The
     old shared job queue let any free worker grab any slot. *)
  Pool.with_domains 4 (fun () ->
      let mapping () =
        Array.map
          (fun (slot, did) -> (slot, did))
          (Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo:_ ~hi:_ ->
               (slot, (Domain.self () :> int))))
      in
      let first = mapping () in
      for round = 2 to 6 do
        let again = mapping () in
        check_bool
          (Printf.sprintf "round %d: slot->domain mapping unchanged" round)
          true (again = first)
      done;
      let ids = Array.map snd first in
      let distinct = List.sort_uniq compare (Array.to_list ids) in
      check_int "4 slots on 4 distinct domains" 4 (List.length distinct))

let test_exception_lowest_slot_wins () =
  Pool.with_domains 4 (fun () ->
      match
        Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo:_ ~hi:_ ->
            if slot >= 1 then failwith (string_of_int slot))
      with
      | _ -> Alcotest.fail "expected a Failure"
      | exception Failure s -> check_string "slot 1 wins" "1" s)

let test_nested_fan_out_inlines () =
  Pool.with_domains 4 (fun () ->
      let inner_slot_counts =
        Pool.fan_out ~n:4 ~chunk:(fun ~slot:_ ~lo:_ ~hi:_ ->
            Array.length (Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo:_ ~hi:_ -> slot)))
      in
      Array.iter (fun c -> check_int "inner runs as one chunk" 1 c)
        inner_slot_counts)

let test_budget_forces_sequential () =
  Pool.with_domains 4 (fun () ->
      let b = Budget.create () in
      Budget.with_budget b (fun () ->
          check_int "one chunk under a budget" 1
            (Array.length (Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo:_ ~hi:_ -> slot)))))

(* ------------------------------------------------------------------ *)
(* Budget isolation across domains (regression: Budget.current was a
   process-global ref, so a worker's checkpoints drained — and raced on —
   the caller's budget).                                                *)

let test_budget_not_visible_across_domains () =
  let b = Budget.create ~probes:5 () in
  let outcome =
    Budget.run b
      ~partial:(fun () -> `Partial)
      (fun () ->
        let d =
          Domain.spawn (fun () ->
              (* If the budget leaked here, 100 checks would trip it. *)
              for _ = 1 to 100 do
                Budget.check ()
              done;
              Budget.installed ())
        in
        let installed_in_worker = Domain.join d in
        check_bool "no ambient budget in the other domain" false
          installed_in_worker;
        Budget.check ();
        `Completed)
  in
  check_bool "100 foreign checks did not trip a 5-probe budget" true
    (outcome = Ok `Completed);
  check_int "only the owner's probe counted" 1 (Budget.probes b)

let test_budget_trip_stays_in_its_domain () =
  let d =
    Domain.spawn (fun () ->
        let b = Budget.create ~probes:0 () in
        match
          Budget.run b ~partial:(fun () -> ()) (fun () -> Budget.check ())
        with
        | Error (`Budget_exceeded ((), `Probes)) -> true
        | Ok () | Error _ -> false)
  in
  check_bool "budget tripped in its own domain" true (Domain.join d);
  (* This domain has no budget: the checkpoint must be a no-op. *)
  Budget.check ();
  check_bool "no leak back" false (Budget.installed ())

(* ------------------------------------------------------------------ *)
(* Knob validation                                                      *)

(* Regression: any non-empty FSA_NO_PRUNE, 0 included, switched pruning
   off. *)
let test_parse_no_prune () =
  check_bool "1 disables" true (Bound.parse_no_prune "1" = Ok true);
  check_bool "0 keeps pruning" true (Bound.parse_no_prune "0" = Ok false);
  check_bool "trimmed" true (Bound.parse_no_prune " 1 " = Ok true);
  check_bool "other digit rejected" true (Result.is_error (Bound.parse_no_prune "2"));
  check_bool "word rejected" true (Result.is_error (Bound.parse_no_prune "yes"));
  check_bool "empty rejected" true (Result.is_error (Bound.parse_no_prune ""))

(* ------------------------------------------------------------------ *)
(* Registry merge (the pool's counter-landing path)                     *)

let test_registry_merge () =
  let a = Registry.create () and b = Registry.create () in
  Registry.incr_counter a "c" 2.0;
  Registry.incr_counter b "c" 3.0;
  Registry.incr_counter b "only_b" 1.0;
  Registry.set_gauge b "g" 7.0;
  Registry.merge_into ~into:a b;
  check_float "counters add" 5.0
    (Option.value ~default:Float.nan (Registry.counter_value a "c"));
  check_float "missing counters appear" 1.0
    (Option.value ~default:Float.nan (Registry.counter_value a "only_b"));
  check_float "gauges carry over" 7.0
    (Option.value ~default:Float.nan (Registry.gauge_value a "g"))

(* ------------------------------------------------------------------ *)
(* Multicore observability: worker events and metrics land in the
   caller's sink and registry after the join, deterministically.        *)

(* Each chunk opens one span; with a sink installed, the caller must see
   span events from every slot, stamped with the emitting slot id, and
   the merged order must be reproducible run over run. *)
(* Timestamps and span durations are wall-clock, so determinism is
   asserted over the ts-stripped stream: (domain, event kind, name). *)
let trace_fan_out () =
  let sink, drain, _ = Fsa_obs.Sink.buffer () in
  Fsa_obs.Runtime.with_observation ~sink (fun () ->
      ignore
        (Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo ~hi ->
             Fsa_obs.Span.with_ ~name:(Printf.sprintf "chunk.%d.%d" lo hi)
               (fun () -> slot))));
  List.map
    (fun (s : Fsa_obs.Sink.stamped) ->
      ( s.Fsa_obs.Sink.s_domain,
        match s.Fsa_obs.Sink.s_event with
        | Fsa_obs.Event.Span_begin { name; _ } -> "B " ^ name
        | Fsa_obs.Event.Span_end { name; _ } -> "E " ^ name
        | _ -> "other" ))
    (drain ())

let test_worker_events_propagate () =
  Pool.with_domains 4 (fun () ->
      let evs = trace_fan_out () in
      (* 4 slots x one span x (begin + end). *)
      check_int "all slots' events arrive" 8 (List.length evs);
      let doms = List.sort_uniq compare (List.map fst evs) in
      check_bool "events from >= 2 domains" true (List.length doms >= 2);
      check_bool "slot ids are stamped" true (doms = [ 0; 1; 2; 3 ]);
      (* Caller's live events first, then workers replayed in slot order. *)
      check_bool "slot order non-decreasing" true
        (List.for_all2 ( <= ) (List.map fst evs)
           (List.tl (List.map fst evs) @ [ max_int ]));
      check_bool "merge is deterministic" true (trace_fan_out () = evs))

(* Satellite: Registry.merge_into histogram determinism beyond 2 domains.
   The same observation stream split 1, 2, and 4 ways and merged in slot
   order must render byte-identically (percentiles sort internally, so
   order inside a histogram cannot leak the split). *)
let test_histogram_merge_determinism () =
  let observations = List.init 100 (fun i -> float_of_int ((i * 37) mod 100)) in
  let merged_render ways =
    let parts = Array.init ways (fun _ -> Registry.create ()) in
    List.iteri
      (fun i v ->
        let r = parts.(i * ways / 100) in
        Registry.observe r "h" v;
        Registry.incr_counter r "c" 1.0;
        Registry.set_gauge r "g" 7.0)
      observations;
    let into = Registry.create () in
    Array.iter (fun p -> Registry.merge_into ~into p) parts;
    Fsa_obs.Report.render into
  in
  let r1 = merged_render 1 in
  check_string "2-way merge renders like 1-way" r1 (merged_render 2);
  check_string "4-way merge renders like 1-way" r1 (merged_render 4)

let test_pool_metrics_recorded () =
  Pool.with_domains 4 (fun () ->
      let reg = Registry.create () in
      Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
          ignore
            (Pool.fan_out ~n:8 ~chunk:(fun ~slot ~lo:_ ~hi:_ ->
                 (* Enough work that every slot's busy time is nonzero. *)
                 let acc = ref 0.0 in
                 for i = 1 to 10_000 do
                   acc := !acc +. sqrt (float_of_int i)
                 done;
                 ignore !acc;
                 slot)));
      let counter name =
        Option.value ~default:0.0 (Registry.counter_value reg name)
      in
      check_float "one fan-out" 1.0 (counter "pool.fan_outs");
      check_bool "busy time recorded" true (counter "pool.busy_ns" > 0.0);
      (match Registry.histogram_summary reg "pool.slot_busy_ns" with
      | Some h -> check_int "one busy sample per slot" 4 h.Registry.count
      | None -> Alcotest.fail "pool.slot_busy_ns histogram missing");
      (match Registry.gauge_value reg "pool.skew" with
      | Some skew -> check_bool "skew >= 1" true (skew >= 1.0)
      | None ->
          (* Legitimate only if some slot's busy time rounded to zero. *)
          ());
      check_float "no events dropped" 0.0 (counter "pool.events_dropped"))

(* Inline fallbacks are counted (nested fan-out, ambient budget). *)
let test_inline_fallback_counters () =
  Pool.with_domains 4 (fun () ->
      let reg = Registry.create () in
      Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
          ignore
            (Pool.fan_out ~n:4 ~chunk:(fun ~slot ~lo:_ ~hi:_ ->
                 ignore (Pool.fan_out ~n:4 ~chunk:(fun ~slot ~lo:_ ~hi:_ -> slot));
                 slot));
          let b = Budget.create () in
          Budget.with_budget b (fun () ->
              ignore (Pool.fan_out ~n:4 ~chunk:(fun ~slot ~lo:_ ~hi:_ -> slot))));
      let counter name =
        Option.value ~default:0.0 (Registry.counter_value reg name)
      in
      check_float "nested inlines counted" 4.0 (counter "pool.inline.nested");
      check_float "budget inlines counted" 1.0 (counter "pool.inline.budget"))

(* ------------------------------------------------------------------ *)
(* Cross-domain determinism: every solver's output is byte-identical at
   1, 2, and 4 domains.                                                 *)

let planted_instance () =
  let rng = Rng.create 7 in
  Instance.random_planted rng ~regions:28 ~h_fragments:6 ~m_fragments:6
    ~inversion_rate:0.2 ~noise_pairs:14

let sparse_instance () =
  let rng = Rng.create 16 in
  Instance.random_sparse rng ~regions:40 ~h_fragments:10 ~m_fragments:10
    ~inversion_rate:0.2 ~noise_pairs:20 ~noise_span:2

let fingerprint sol =
  Printf.sprintf "%.17g\n%s" (Solution.score sol) (Solution.to_text sol)

let solvers =
  [
    ("one_csr.four_approx", fun inst -> One_csr.four_approx inst);
    ( "one_csr.exact_isp",
      fun inst -> One_csr.four_approx ~algorithm:One_csr.Exact_isp inst );
    ("greedy", fun inst -> Greedy.solve inst);
    ("full_improve", fun inst -> fst (Full_improve.solve inst));
    ("csr_improve", fun inst -> fst (Csr_improve.solve inst));
  ]

let test_solver_determinism () =
  List.iter
    (fun (inst_name, inst) ->
      List.iter
        (fun (solver_name, solve) ->
          let at d = Pool.with_domains d (fun () -> fingerprint (solve inst)) in
          let s1 = at 1 in
          check_string
            (Printf.sprintf "%s on %s: 2 domains == 1" solver_name inst_name)
            s1 (at 2);
          check_string
            (Printf.sprintf "%s on %s: 4 domains == 1" solver_name inst_name)
            s1 (at 4))
        solvers)
    [ ("planted", planted_instance ()); ("sparse", sparse_instance ()) ]

let test_improve_stats_determinism () =
  let inst = planted_instance () in
  let at d =
    Pool.with_domains d (fun () ->
        let sol, (stats : Improve.stats) = Full_improve.solve inst in
        (fingerprint sol, stats.rounds, stats.improvements, stats.evaluated))
  in
  let r1 = at 1 in
  check_bool "stats identical at 2 domains" true (at 2 = r1);
  check_bool "stats identical at 4 domains" true (at 4 = r1)

(* Solvers run on the calling domain, so every counter they record — the
   cmatch.* memo and bound counters included — is the same at any domain
   count; only the pool's own pool.* metrics may differ.  Each run solves a
   fresh instance, whose memo starts empty, so the memo counters are
   comparable. *)
let test_counter_determinism () =
  let counters make solve d =
    let inst = make () in
    let reg = Registry.create () in
    Pool.with_domains d (fun () ->
        Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
            ignore (solve inst)));
    Registry.counters reg
    |> List.filter (fun (name, _) -> not (String.starts_with ~prefix:"pool." name))
    |> List.map (fun (name, v) -> Printf.sprintf "%s %.17g" name v)
    |> String.concat "\n"
  in
  List.iter
    (fun (inst_name, inst) ->
      List.iter
        (fun (solver_name, solve) ->
          let c1 = counters inst solve 1 in
          List.iter
            (fun d ->
              check_string
                (Printf.sprintf "%s on %s: counters at %d domains == 1"
                   solver_name inst_name d)
                c1 (counters inst solve d))
            [ 2; 4 ])
        solvers)
    [ ("planted", planted_instance); ("sparse", sparse_instance) ]

(* Discovery fans (H contig, strand) items across the pool.  Three H
   contigs make 6 items, split 1/2/1/2 at 4 domains; one H and one M contig
   are shorter than k.  The instance text and every counter except pool.*
   must not depend on the domain count. *)
let test_discovery_determinism () =
  let module P = Fsa_genome.Pipeline in
  let module F = Fsa_genome.Fragmentation in
  let h, m = P.generate (Rng.create 5) { P.default_params with h_pieces = 2 } in
  let short name =
    {
      F.name;
      dna = Fsa_seq.Dna.of_string "ACGTACG";
      regions = [];
      true_offset = 0;
      true_reversed = false;
    }
  in
  let h = List.hd h :: short "h_short" :: List.tl h and m = short "m_short" :: m in
  check_int "three H contigs" 3 (List.length h);
  let run d =
    let reg = Registry.create () in
    let built =
      Pool.with_domains d (fun () ->
          Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
              P.discovery_instance ~h ~m ()))
    in
    let counters =
      Registry.counters reg
      |> List.filter (fun (name, _) -> not (String.starts_with ~prefix:"pool." name))
      |> List.map (fun (name, v) -> Printf.sprintf "%s %.17g" name v)
    in
    let fanned = Registry.counter_value reg "pool.fan_outs" = Some 1.0 in
    (Instance.to_text built.P.instance, String.concat "\n" counters, fanned)
  in
  let text1, counters1, _ = run 1 in
  check_bool "seed counters recorded" true
    (String.length counters1 > 0
    && List.exists
         (fun l -> String.starts_with ~prefix:"seed.runs_extended" l)
         (String.split_on_char '\n' counters1));
  List.iter
    (fun d ->
      let text, counters, fanned = run d in
      check_bool (Printf.sprintf "pool used at %d domains" d) true fanned;
      check_string (Printf.sprintf "instance text at %d domains == 1" d) text1 text;
      check_string (Printf.sprintf "counters at %d domains == 1" d) counters1 counters)
    [ 2; 3; 4 ]

(* The solvers' memo lives on the instance, so any domain can solve: a
   solve on a spawned domain returns what the calling domain's does, on a
   fresh instance and on one whose memo the calling domain filled. *)
let test_solve_from_other_domain () =
  let inst = planted_instance () in
  let expected = fingerprint (Csr_improve.solve_best inst) in
  let on_spawned inst =
    Domain.join (Domain.spawn (fun () -> fingerprint (Csr_improve.solve_best inst)))
  in
  check_string "fresh instance" expected (on_spawned (planted_instance ()));
  check_string "instance solved here" expected (on_spawned inst)

(* Two domains solving one fresh instance at once race on every memo slot;
   each must still return the calling domain's answer. *)
let test_two_domains_one_instance () =
  let expected = fingerprint (Csr_improve.solve_best (sparse_instance ())) in
  let inst = sparse_instance () in
  let started = Atomic.make 0 in
  let solve () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    fingerprint (Csr_improve.solve_best inst)
  in
  let a = Domain.spawn solve and b = Domain.spawn solve in
  check_string "first domain" expected (Domain.join a);
  check_string "second domain" expected (Domain.join b)

(* The pinned fuzz corpus, replayed with the pool active: every oracle
   property must still hold, and the runs must examine the same number of
   instances as the sequential replay in test_check.  *)
let test_corpus_parallel () =
  Pool.with_domains 2 (fun () ->
      List.iter
        (fun (seed, count) ->
          let o = Fsa_check.Fuzz.run ~seed ~count () in
          check_int
            (Printf.sprintf "seed %d examined all" seed)
            count o.Fsa_check.Fuzz.instances;
          match o.Fsa_check.Fuzz.counterexamples with
          | [] -> ()
          | c :: _ ->
              Alcotest.failf "seed %d: %s on instance %d:\n%s" seed
                c.Fsa_check.Fuzz.property c.Fsa_check.Fuzz.index
                c.Fsa_check.Fuzz.detail)
        Fsa_check.Fuzz.corpus)

(* ------------------------------------------------------------------ *)
(* Releasing a finished instance's memo                                 *)

let test_solve_best_heap_flat () =
  (* A finished instance's site tables, σ snapshot and bound summary live
     in its memo, so the GC frees them with the instance: after warm-up,
     live words stay put. *)
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let warm = ref 0 in
  for i = 1 to 60 do
    let inst =
      Instance.random_planted (Rng.create (1000 + i)) ~regions:12
        ~h_fragments:3 ~m_fragments:3 ~inversion_rate:0.2 ~noise_pairs:12
    in
    ignore (Csr_improve.solve_best inst);
    if i = 10 then warm := live ()
  done;
  let grown = live () - !warm in
  (* Without the release this grows by ~3.7k words per instance. *)
  check_bool
    (Printf.sprintf "live words grew by %d over 50 instances (slack 16384)"
       grown)
    true (grown <= 16_384)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
          Alcotest.test_case "set_domains validation" `Quick
            test_set_domains_validation;
          Alcotest.test_case "with_domains restores" `Quick
            test_with_domains_restores;
          Alcotest.test_case "fan_out coverage" `Quick test_fan_out_coverage;
          Alcotest.test_case "fan_out empty" `Quick test_fan_out_empty;
          Alcotest.test_case "static slot->domain mapping" `Quick
            test_static_slot_domain_mapping;
          Alcotest.test_case "lowest-slot exception wins" `Quick
            test_exception_lowest_slot_wins;
          Alcotest.test_case "nested fan-out inlines" `Quick
            test_nested_fan_out_inlines;
          Alcotest.test_case "budget forces sequential" `Quick
            test_budget_forces_sequential;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "budget invisible across domains" `Quick
            test_budget_not_visible_across_domains;
          Alcotest.test_case "budget trips stay local" `Quick
            test_budget_trip_stays_in_its_domain;
          Alcotest.test_case "solve from another domain" `Quick
            test_solve_from_other_domain;
          Alcotest.test_case "two domains solve one instance" `Quick
            test_two_domains_one_instance;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "parse_no_prune" `Quick test_parse_no_prune;
          Alcotest.test_case "registry merge" `Quick test_registry_merge;
        ] );
      ( "observability",
        [
          Alcotest.test_case "worker events propagate" `Quick
            test_worker_events_propagate;
          Alcotest.test_case "histogram merge determinism" `Quick
            test_histogram_merge_determinism;
          Alcotest.test_case "pool metrics recorded" `Quick
            test_pool_metrics_recorded;
          Alcotest.test_case "inline fallback counters" `Quick
            test_inline_fallback_counters;
        ] );
      ( "memo release",
        [
          Alcotest.test_case "solve_best keeps the heap flat" `Quick
            test_solve_best_heap_flat;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "solvers at 1/2/4 domains" `Slow
            test_solver_determinism;
          Alcotest.test_case "improve stats" `Slow
            test_improve_stats_determinism;
          Alcotest.test_case "every counter at 1/2/4 domains" `Slow
            test_counter_determinism;
          Alcotest.test_case "discovery at 1/2/3/4 domains" `Slow
            test_discovery_determinism;
          Alcotest.test_case "pinned corpus with pool" `Slow
            test_corpus_parallel;
        ] );
    ]
