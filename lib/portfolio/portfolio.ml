(* Anytime portfolio scheduler over the CSR solver ladder.

   The scheduler owns three concerns and nothing else:

   - *Cost estimation* ([estimate]): order-of-magnitude per-tier probe
     counts from the admissible-bound summaries and fragment sizes, one
     cheap pass, no match tables built.  Estimates gate skipping and pick
     the scaling ε; they never affect correctness — every tier runs under
     a real resource budget and hands back a valid partial when it trips.
   - *Budget splitting*: each tier gets a fixed fraction of the budget
     *remaining* when it starts (so overruns self-correct: a tier that
     eats its slice shrinks everyone downstream), and the last affordable
     tier gets everything left.
   - *ε escalation*: when the estimate says an improvement tier cannot
     converge inside its slice, the §4.1 scaling knob is coarsened
     (ε' = ε·estimate/slice, capped at 0.5) to bound committed
     improvements by 4k/ε' — trading ratio for time mid-flight. *)

open Fsa_csr
module Budget = Fsa_obs.Budget
module Clock = Fsa_obs.Clock
module Counter = Fsa_obs.Metric.Counter

type tier = Greedy | Four_approx | Full_improve | Csr_improve | Exact

let tier_to_string = function
  | Greedy -> "greedy"
  | Four_approx -> "four_approx"
  | Full_improve -> "full_improve"
  | Csr_improve -> "csr_improve"
  | Exact -> "exact"

let ladder = [ Greedy; Four_approx; Full_improve; Csr_improve; Exact ]

type outcome = Completed | Tripped of Budget.reason | Skipped of string

type attempt = {
  tier : tier;
  outcome : outcome;
  score : float option;
  epsilon : float option;
  probes : int;
  elapsed_s : float;
}

type estimate = {
  viable_pairs : int;
  site_probes : float;
  greedy_probes : float;
  four_approx_probes : float;
  full_improve_probes : float;
  csr_improve_probes : float;
  exact_layouts : int;
}

type report = {
  solution : Solution.t;
  answered : tier;
  attempts : attempt list;
  exact_score : float option;
  optimal : bool;
  deadline_hit : bool;
  elapsed_s : float;
}

let deadline_hits_counter = Counter.make "portfolio.deadline_hits"
let scaled_runs_counter = Counter.make "portfolio.scaled_runs"
let invalid_counter = Counter.make "portfolio.invalid_tier_solutions"
let tier_counter t = Counter.make ("portfolio.tier." ^ tier_to_string t)
let answered_counter t = Counter.make ("portfolio.answered." ^ tier_to_string t)

(* ------------------------------------------------------------------ *)
(* Cost model *)

let sites_of_len len = float_of_int (len * (len + 1) / 2)

(* Layout pairs the exact search enumerates without overflowing on large
   sides ((k! · 2^k)² overflows 63-bit ints near k = 10). *)
let exact_layouts_or_max inst =
  let kh = Instance.fragment_count inst Species.H in
  let km = Instance.fragment_count inst Species.M in
  if kh > 6 || km > 6 then max_int else Exact.layout_count inst

let estimate inst =
  let kh = Instance.fragment_count inst Species.H in
  let km = Instance.fragment_count inst Species.M in
  let len side i = Fsa_seq.Fragment.length (Instance.fragment inst side i) in
  (* Viable ordered pairs and the site sweep they imply — [Bound.ms_bound]
     directly (not [pair_viable]) so estimation does not pollute the
     cmatch.bound_checks/pruned counters solvers report. *)
  let viable = ref 0 in
  let site_probes = ref 0.0 in
  let direction full_side =
    let other = Species.other full_side in
    for f = 0 to Instance.fragment_count inst full_side - 1 do
      for g = 0 to Instance.fragment_count inst other - 1 do
        if Bound.ms_bound inst ~full_side f ~other_frag:g > 0.0 then begin
          incr viable;
          site_probes := !site_probes +. sites_of_len (len other g)
        end
      done
    done
  in
  direction Species.H;
  direction Species.M;
  let sum_sites side =
    let s = ref 0.0 in
    for i = 0 to Instance.fragment_count inst side - 1 do
      s := !s +. sites_of_len (len side i)
    done;
    !s
  in
  (* The improvement tiers enumerate attempts over *all* pairs (pruning
     happens inside apply), then rescan the space once per committed
     improvement; committed improvements grow with the smaller side. *)
  let all_sites =
    (float_of_int kh *. sum_sites Species.M)
    +. (float_of_int km *. sum_sites Species.H)
  in
  let min_frags = float_of_int (min kh km) in
  let full_improve = 2.0 *. all_sites *. (1.0 +. min_frags) in
  {
    viable_pairs = !viable;
    site_probes = !site_probes;
    greedy_probes = !site_probes *. (1.0 +. (0.5 *. min_frags));
    four_approx_probes = float_of_int (2 * kh * km) +. (1.5 *. !site_probes);
    full_improve_probes = full_improve;
    csr_improve_probes = 1.5 *. full_improve;
    exact_layouts = exact_layouts_or_max inst;
  }

(* ------------------------------------------------------------------ *)
(* Scheduling state *)

(* Probes/second before any tier has run; recalibrated from measured
   throughput after the first tier finishes.  Only used to convert a wall
   deadline into a probe-denominated slice for ε selection. *)
let default_probe_rate = 5e6

let exact_layout_cap = 20_000

type sched = {
  deadline_at : float option;  (* absolute Clock.now () seconds *)
  max_probes : int option;
  started : float;
  mutable used_probes : int;
  mutable hit : bool;
}

let remaining_wall s = Option.map (fun d -> d -. Clock.now ()) s.deadline_at
let remaining_probes s = Option.map (fun m -> m - s.used_probes) s.max_probes

let exhausted s =
  (match remaining_wall s with Some r -> r <= 0.0 | None -> false)
  || match remaining_probes s with Some r -> r <= 0 | None -> false

let probe_rate s =
  let elapsed = Clock.now () -. s.started in
  if s.used_probes > 0 && elapsed > 1e-6 then float_of_int s.used_probes /. elapsed
  else default_probe_rate

(* The tier's budget slice: [frac] of whatever remains in each budgeted
   dimension (clamped non-negative so an overrun upstream yields an
   instantly-tripping slice, not an [Invalid_argument]). *)
let slice ~frac s =
  let wall =
    Option.map (fun r -> Float.max 0.0 (r *. frac)) (remaining_wall s)
  in
  let probes =
    Option.map
      (fun r -> max 0 (int_of_float (float_of_int (max 0 r) *. frac)))
      (remaining_probes s)
  in
  Budget.create ?wall_s:wall ?probes ()

(* The slice expressed in probes, for comparison against cost estimates:
   the tightest of the probe dimension and the wall dimension converted at
   the measured probe rate.  [None] when fully unbudgeted. *)
let slice_in_probes ~frac s =
  let of_wall =
    Option.map
      (fun r -> Float.max 0.0 r *. frac *. probe_rate s)
      (remaining_wall s)
  in
  let of_probes =
    Option.map
      (fun r -> float_of_int (max 0 r) *. frac)
      (remaining_probes s)
  in
  match (of_wall, of_probes) with
  | None, None -> None
  | Some a, None | None, Some a -> Some a
  | Some a, Some b -> Some (Float.min a b)

(* ------------------------------------------------------------------ *)
(* The ladder *)

let solve ?deadline ?probes ?(epsilon = 0.05) inst =
  (match deadline with
  | Some d when Float.is_nan d || d < 0.0 ->
      invalid_arg "Portfolio.solve: deadline must be a non-negative number"
  | _ -> ());
  (match probes with
  | Some p when p < 0 -> invalid_arg "Portfolio.solve: negative probe budget"
  | _ -> ());
  Improve.check_epsilon "Portfolio.solve" epsilon;
  Fsa_obs.Span.with_ ~name:"portfolio.solve" @@ fun () ->
  let est = estimate inst in
  Fsa_obs.Metric.Gauge.set
    (Fsa_obs.Metric.Gauge.make "portfolio.estimate.viable_pairs")
    (float_of_int est.viable_pairs);
  let started = Clock.now () in
  let sched =
    {
      deadline_at = Option.map (fun d -> started +. d) deadline;
      max_probes = probes;
      started;
      used_probes = 0;
      hit = false;
    }
  in
  (* The empty solution is the floor every instance starts from; it is
     attributed to the cheapest tier. *)
  let best = ref (Greedy, Solution.empty inst) in
  let attempts = ref [] in
  let record tier outcome ~score ~epsilon ~probes ~elapsed =
    attempts :=
      { tier; outcome; score; epsilon; probes; elapsed_s = elapsed } :: !attempts
  in
  (* Keep the tier's solution when it validates and strictly improves; a
     tie keeps the cheaper tier's answer.  Solver outputs are revalidated
     here because the whole point of the portfolio is to hand *something*
     back under pressure — a buggy tier must lose its slot, not poison the
     answer (trips are counted so it cannot rot silently). *)
  let consider tier sol =
    match Solution.validate sol with
    | Error _ ->
        Counter.incr invalid_counter;
        None
    | Ok () ->
        let sc = Solution.score sol in
        if sc > Solution.score (snd !best) then best := (tier, sol);
        Some sc
  in
  let note_outcome = function
    | Tripped _ -> sched.hit <- true
    | Completed | Skipped _ -> ()
  in
  (* Run one tier under its slice; [run] maps the solver's budgeted result
     to (solution option, outcome). *)
  let attempt_tier tier ~frac ~epsilon:eps run =
    Counter.incr (tier_counter tier);
    Fsa_obs.Span.with_ ~name:("portfolio.tier." ^ tier_to_string tier)
    @@ fun () ->
    let t0 = Clock.now () in
    let b = slice ~frac sched in
    let sol, outcome = run b in
    sched.used_probes <- sched.used_probes + Budget.probes b;
    note_outcome outcome;
    let score = Option.bind sol (consider tier) in
    record tier outcome ~score ~epsilon:eps ~probes:(Budget.probes b)
      ~elapsed:(Clock.now () -. t0)
  in
  let skip tier reason =
    record tier (Skipped reason) ~score:None ~epsilon:None ~probes:0
      ~elapsed:0.0
  in
  let of_solution_outcome = function
    | Ok sol -> (Some sol, Completed)
    | Error (`Budget_exceeded (sol, r)) -> (Some sol, Tripped r)
  in
  (* Improvement tiers: coarsen ε when the estimate says the unscaled run
     cannot fit the slice, and reuse the best score so far as the scaling
     reference X instead of re-running the 4-approximation. *)
  let improvement_tier tier ~frac ~est_probes solver =
    if exhausted sched then skip tier "budget exhausted"
    else begin
      let eps =
        match slice_in_probes ~frac sched with
        | None -> None
        | Some s when s >= est_probes -> None
        | Some s ->
            Some (Float.min 0.5 (epsilon *. est_probes /. Float.max s 1.0))
      in
      let reference = Solution.score (snd !best) in
      match (eps, Improve.truncated_instance ~reference inst) with
      | Some eps_v, Some _ -> (
          (* Rebuild the truncation at the coarsened ε.  The solver runs on
             the throwaway instance; both converged and partial results are
             rescored under the true σ (outside the budget — the solver's
             Budget.run already uninstalled it). *)
          match Improve.truncated_instance ~epsilon:eps_v ~reference inst with
          | None -> assert false (* reference > 0 since truncation above *)
          | Some (truncated, _unit) ->
              Counter.incr scaled_runs_counter;
              attempt_tier tier ~frac ~epsilon:(Some eps_v) (fun b ->
                  let sol, outcome =
                    of_solution_outcome
                      (match solver b truncated with
                      | Ok (sol, _stats) -> Ok sol
                      | Error (`Budget_exceeded ((sol, _stats), r)) ->
                          Error (`Budget_exceeded (sol, r)))
                  in
                  (Option.map (Improve.rescore inst) sol, outcome)))
      | _ ->
          (* Unscaled: enough budget, or nothing positive to scale against. *)
          attempt_tier tier ~frac ~epsilon:None (fun b ->
              of_solution_outcome
                (match solver b inst with
                | Ok (sol, _stats) -> Ok sol
                | Error (`Budget_exceeded ((sol, _stats), r)) ->
                    Error (`Budget_exceeded (sol, r))))
    end
  in
  (* 1. Greedy — always attempted, even with the budget already gone: its
     slice then trips on the first checkpoint and the empty partial is the
     honest floor. *)
  attempt_tier Greedy ~frac:0.15 ~epsilon:None (fun b ->
      of_solution_outcome (Greedy.solve_budgeted b inst));
  (* 2. The ISP 4-approximation. *)
  if exhausted sched then skip Four_approx "budget exhausted"
  else
    attempt_tier Four_approx ~frac:0.35 ~epsilon:None (fun b ->
        of_solution_outcome (One_csr.four_approx_budgeted b inst));
  (* 3./4. The improvement tiers. *)
  improvement_tier Full_improve ~frac:0.5 ~est_probes:est.full_improve_probes
    (fun b i -> Full_improve.solve_budgeted b i);
  let exact_eligible = est.exact_layouts <= exact_layout_cap in
  improvement_tier Csr_improve
    ~frac:(if exact_eligible then 0.7 else 1.0)
    ~est_probes:est.csr_improve_probes
    (fun b i -> Csr_improve.solve_budgeted b i);
  (* 5. The exact certificate: only on instances whose layout count is
     sane, under whatever budget is left.  A completed search certifies
     optimality; a tripped one is discarded (its best-so-far score is a
     lower bound, not a certificate). *)
  let exact_score = ref None in
  if not exact_eligible then
    skip Exact
      (Printf.sprintf "layout count above cap (%s > %d)"
         (if est.exact_layouts = max_int then "huge"
          else string_of_int est.exact_layouts)
         exact_layout_cap)
  else if exhausted sched then skip Exact "budget exhausted"
  else
    attempt_tier Exact ~frac:1.0 ~epsilon:None (fun b ->
        match Exact.solve_budgeted b inst with
        | Ok (s, _, _) ->
            exact_score := Some s;
            (None, Completed)
        | Error (`Budget_exceeded (_, r)) -> (None, Tripped r));
  let answered, solution = !best in
  Counter.incr (answered_counter answered);
  if sched.hit then Counter.incr deadline_hits_counter;
  let optimal =
    match !exact_score with
    | Some s -> Solution.score solution >= s -. 1e-6
    | None -> false
  in
  {
    solution;
    answered;
    attempts = List.rev !attempts;
    exact_score = !exact_score;
    optimal;
    deadline_hit = sched.hit;
    elapsed_s = Clock.now () -. started;
  }
