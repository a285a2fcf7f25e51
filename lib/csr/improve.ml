open Fsa_seq

type attempt = { label : unit -> string; apply : Solution.t -> Solution.t option }
type stats = { rounds : int; improvements : int; evaluated : int }

let evaluated_counter = Fsa_obs.Metric.Counter.make "improve.evaluated"
let accepted_counter = Fsa_obs.Metric.Counter.make "improve.accepted"
let rejected_counter = Fsa_obs.Metric.Counter.make "improve.rejected"

(* First-improvement scan over one round's attempt list, from index [start]
   modulo its length and wrapping once: the first attempt whose gain exceeds
   [min_gain] with its index, and how many attempts were evaluated. *)
let scan_attempts ~min_gain ~start sol base attempt_list =
  let n = List.length attempt_list in
  let start = if n = 0 then 0 else start mod n in
  (* Scans indices [i, stop) of a list whose head is attempt i. *)
  let rec go k i stop = function
    | a :: rest when i < stop -> (
        Fsa_obs.Budget.check ();
        match a.apply sol with
        | Some sol' when Solution.score sol' -. base > min_gain ->
            (Some (a, sol', i), k + 1)
        | Some _ | None -> go (k + 1) (i + 1) stop rest)
    | _ -> (None, k)
  in
  let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
  match go 0 start n (drop start attempt_list) with
  | (Some _, _) as won -> won
  | None, k -> go k 0 start attempt_list

(* [track] publishes (solution, stats so far) after every committed
   improvement, so a budgeted run can surface the latest state as its
   partial result. *)
let run_tracked ~track ~min_gain ~max_improvements ~name ~attempts ~init () =
  if min_gain < 0.0 then invalid_arg "Improve.run: negative min_gain";
  Fsa_obs.Span.with_ ~name:(name ^ ".run") @@ fun () ->
  let evaluated = ref 0 in
  (* Round convention: rounds = scans performed, counted when the scan
     *starts* (so the first scan is round 1).  Both exit paths and every
     emitted event report the same number — a run that converges immediately
     did one scan and reports one round; a run cut off by
     [max_improvements] reports exactly [improvements] rounds, since every
     one of its scans committed.  A scan starts at the previous winner, so
     the run ends after one full pass commits nothing: a local optimum. *)
  let rec loop sol rounds improvements start =
    if improvements >= max_improvements then
      (sol, { rounds; improvements; evaluated = !evaluated })
    else begin
      let rounds = rounds + 1 in
      let base = Solution.score sol in
      let result, scanned = scan_attempts ~min_gain ~start sol base (attempts sol) in
      evaluated := !evaluated + scanned;
      match result with
      | Some (a, sol', winner) ->
          track
            (sol', { rounds; improvements = improvements + 1; evaluated = !evaluated });
          if Fsa_obs.Runtime.observing () then begin
            Fsa_obs.Metric.Counter.add evaluated_counter scanned;
            Fsa_obs.Metric.Counter.incr accepted_counter;
            Fsa_obs.Metric.Counter.add rejected_counter (scanned - 1);
            if Fsa_obs.Runtime.tracing () then
              Fsa_obs.Runtime.emit
                (Fsa_obs.Event.Move
                   {
                     solver = name;
                     round = rounds;
                     label = a.label ();
                     accepted = true;
                     score_before = base;
                     score_after = Solution.score sol';
                   })
          end;
          loop sol' rounds (improvements + 1) winner
      | None ->
          if Fsa_obs.Runtime.observing () then begin
            Fsa_obs.Metric.Counter.add evaluated_counter scanned;
            Fsa_obs.Metric.Counter.add rejected_counter scanned;
            if Fsa_obs.Runtime.tracing () then
              Fsa_obs.Runtime.emit
                (Fsa_obs.Event.Step
                   { solver = name; round = rounds; evaluated = scanned; score = base })
          end;
          (sol, { rounds; improvements; evaluated = !evaluated })
    end
  in
  loop init 0 0 0

let run ?(min_gain = 1e-9) ?(max_improvements = 100_000) ?(name = "improve")
    ~attempts ~init () =
  run_tracked
    ~track:(fun _ -> ())
    ~min_gain ~max_improvements ~name ~attempts ~init ()

let run_budgeted ?(min_gain = 1e-9) ?(max_improvements = 100_000) ?(name = "improve")
    ~attempts ~init budget () =
  let latest = ref (init, { rounds = 0; improvements = 0; evaluated = 0 }) in
  Fsa_obs.Budget.run budget
    ~partial:(fun () -> !latest)
    (fun () ->
      run_tracked
        ~track:(fun state -> latest := state)
        ~min_gain ~max_improvements ~name ~attempts ~init ())

let tpa_fill_counter = Fsa_obs.Metric.Counter.make "improve.tpa_fill_calls"

(* Two branches below keep the solution as it stands instead of plugging,
   and count the event so it shows up in --stats.  A full site reported
   hidden cannot happen.  A rejected add does: a zone is free when the
   attempt frees it, but its host may be plugged whole before the fill
   runs.  I1 frees f's old site on f when it prepares g, then plugs f into
   g, and a fill may plug as a job a fragment whose freed site a later
   fill of the same attempt refills.  The selected job is then left
   detached.  Pruning does not rule it out.  On perfbench's [fragmented]
   seed-1 pairs it fires about 41 times per solve under FSA_NO_PRUNE=1
   and never with pruning on, but with pruning on it fires about 29 times
   per solve in the [Full_Improve (12 regions)] timing bench, and about
   0.2 times per perfbench [chromosome] job. *)
let prepare_miss_counter = Fsa_obs.Metric.Counter.make "improve.tpa_fill_prepare_misses"
let add_error_counter = Fsa_obs.Metric.Counter.make "improve.tpa_fill_add_errors"

let tpa_fill sol ~host:(side, frag) ~zones ~exclude =
  Fsa_obs.Metric.Counter.incr tpa_fill_counter;
  let inst = Solution.instance sol in
  let other = Species.other side in
  let jobs = Instance.fragment_count inst other in
  (* A candidate needs ms > opportunity_cost; if even the admissible bound
     cannot beat it, the whole (job, host) table is dead work.  The bounds
     are read from the host's column, and the call's checks are counted
     once, before the site scan, so a budget trip inside the scan leaves
     the counter totals [Bound.pair_viable] would have reached. *)
  let pruning = Bound.enabled () in
  let col =
    if pruning then Bound.host_column inst ~full_side:other ~other_frag:frag
    else [||]
  in
  let checks = ref 0 and pruned = ref 0 and viable = ref [] in
  for job = jobs - 1 downto 0 do
    if not (List.mem job exclude) then begin
      let opportunity_cost = Solution.contribution sol other job in
      if not pruning then viable := (job, opportunity_cost) :: !viable
      else begin
        incr checks;
        if col.(job) > opportunity_cost then
          viable := (job, opportunity_cost) :: !viable
        else incr pruned
      end
    end
  done;
  Bound.count_checks ~checks:!checks ~pruned:!pruned;
  let cands = ref [] in
  List.iter
    (fun (job, opportunity_cost) ->
      (* One site-table probe per candidate: the (job, host) pair's MS
         values for every (lo, hi) come from a single shared precompute. *)
      let tbl = Cmatch.full_table inst ~full_side:other job ~other_frag:frag in
      List.iter
        (fun (zone : Site.t) ->
          for lo = zone.Site.lo to zone.Site.hi do
            for hi = lo to zone.Site.hi do
              Fsa_obs.Budget.check ();
              let ms, _rev = Cmatch.table_ms tbl ~lo ~hi in
              let profit = ms -. opportunity_cost in
              if profit > 0.0 then
                cands :=
                  {
                    Fsa_intervals.Isp.job;
                    interval = Fsa_intervals.Interval.make lo hi;
                    profit;
                  }
                  :: !cands
            done
          done)
        zones)
    !viable;
  if !cands = [] then sol
  else begin
    let isp = Fsa_intervals.Isp.create ~jobs !cands in
    let _, selection = Fsa_intervals.Isp.tpa isp in
    (* Plug each selected fragment: detach it from its current matches (the
       profit already paid for that), then add the full match. *)
    List.fold_left
      (fun sol (c : Fsa_intervals.Isp.candidate) ->
        let full_site =
          Fragment.full_site (Instance.fragment inst other c.job)
        in
        match Solution.prepare sol other c.job full_site with
        | None ->
            (* Cannot happen: a full site is never hidden. *)
            Fsa_obs.Metric.Counter.incr prepare_miss_counter;
            sol
        | Some (sol, _freed) -> (
            let site =
              Site.make c.interval.Fsa_intervals.Interval.lo
                c.interval.Fsa_intervals.Interval.hi
            in
            let m =
              Cmatch.full inst ~full_side:other c.job ~other_frag:frag ~other_site:site
            in
            match Solution.add sol m with
            | Ok sol' -> sol'
            | Error _ ->
                (* The host was plugged whole since its zone was freed. *)
                Fsa_obs.Metric.Counter.incr add_error_counter;
                sol))
      sol selection
  end

let rescore inst sol =
  let matches =
    List.map
      (fun (m : Cmatch.t) ->
        { m with Cmatch.score = Cmatch.recompute_score inst m })
      (Solution.matches sol)
  in
  match Solution.of_matches inst matches with
  | Ok sol' -> sol'
  | Error e -> invalid_arg ("Improve.rescore: " ^ e)

let truncated_instance ?(epsilon = 0.05) ~reference inst =
  if reference <= 0.0 then None
  else begin
    let k = float_of_int (Instance.max_matches inst) in
    let unit_ = epsilon *. reference /. Float.max k 1.0 in
    Some
      ( Instance.with_sigma inst
          (Fsa_seq.Scoring.truncate_to_multiples inst.Instance.sigma unit_),
        unit_ )
  end

let with_scaling ?epsilon inst algorithm =
  let reference = Solution.score (One_csr.four_approx inst) in
  match truncated_instance ?epsilon ~reference inst with
  | None -> Solution.empty inst
  | Some (truncated, _unit) ->
      let sol = algorithm truncated in
      let sol = rescore inst sol in
      (* The truncated instance is throwaway: release its memoized tables and
         summaries instead of letting them age out of the LRU. *)
      Cmatch.invalidate truncated;
      sol
