(** Anytime portfolio solver: predictable latency over a fixed algorithm.

    Serve-time traffic needs an answer by a deadline, not a particular
    solver.  [solve] walks the paper's ladder — {!Fsa_csr.Greedy}, the ISP
    4-approximation ({!Fsa_csr.One_csr}), {!Fsa_csr.Full_improve},
    {!Fsa_csr.Csr_improve}, and on small instances the exhaustive
    {!Fsa_csr.Exact} search as an optimality certificate — giving each tier
    a slice of the ambient {!Fsa_obs.Budget} and keeping the best valid
    solution seen so far.  Tier costs are estimated up front from
    {!Fsa_csr.Bound} summaries and instance size; the §4.1 ε/k scaling knob
    shrinks the improvement tiers mid-flight when the estimate says the
    unscaled run cannot fit the remaining budget.

    Anytime property (fuzz-oracle tested): whatever the deadline, the
    returned solution passes {!Fsa_csr.Solution.validate}, and its score
    never exceeds the exact optimum.  With no deadline and no probe limit,
    the result equals the best underlying solver's. *)

type tier = Greedy | Four_approx | Full_improve | Csr_improve | Exact

val tier_to_string : tier -> string
val ladder : tier list
(** All tiers, cheapest first — the schedule order of {!solve}. *)

type outcome =
  | Completed  (** the tier ran to convergence inside its budget slice *)
  | Tripped of Fsa_obs.Budget.reason
      (** the slice ran out; the tier still handed back a valid partial *)
  | Skipped of string  (** not attempted (reason: budget exhausted, too big...) *)

type attempt = {
  tier : tier;
  outcome : outcome;
  score : float option;
      (** the tier's own (rescored) solution score; [None] when skipped or
          when the tier yields no solution (the exact certificate) *)
  epsilon : float option;
      (** the §4.1 scaling ε the tier ran under; [None] for unscaled runs *)
  probes : int;  (** checkpoints the tier consumed from the shared budget *)
  elapsed_s : float;
}

type estimate = {
  viable_pairs : int;
      (** ordered cross-species fragment pairs whose {!Fsa_csr.Bound}
          admissible bound is positive — the pairs any solver probes *)
  site_probes : float;
      (** Σ over viable pairs of the host fragment's site count: one ISP
          candidate-generation sweep (the 4-approximation's unit of work) *)
  greedy_probes : float;  (** estimated checkpoints for a full greedy run *)
  four_approx_probes : float;
  full_improve_probes : float;  (** at the base ε *)
  csr_improve_probes : float;  (** at the base ε *)
  exact_layouts : int;  (** layout pairs the exact search would enumerate *)
}

val estimate : Fsa_csr.Instance.t -> estimate
(** Order-of-magnitude tier costs in checkpoint probes, from one cheap
    pass over the {!Fsa_csr.Bound} summaries (no match tables are built).
    Used to pick budget slices and ε; never affects correctness. *)

type report = {
  solution : Fsa_csr.Solution.t;  (** best valid solution across tiers *)
  answered : tier;  (** the tier that produced [solution] *)
  attempts : attempt list;  (** in schedule order, every tier accounted for *)
  exact_score : float option;
      (** the certified optimum, when the exact tier completed its search *)
  optimal : bool;  (** [solution] matches [exact_score] (within 1e-6) *)
  deadline_hit : bool;  (** some tier tripped its wall/probe slice *)
  elapsed_s : float;
}

val solve :
  ?deadline:float ->
  ?probes:int ->
  ?epsilon:float ->
  Fsa_csr.Instance.t ->
  report
(** [solve ?deadline ?probes inst] answers within roughly [deadline]
    seconds (and/or [probes] checkpoints) — "roughly" because budget
    slices poll the clock every 32 checkpoints and partial
    results are assembled after the trip; overshoot stays well under 2×
    the deadline (bench-gated).  With neither knob every tier runs
    unbudgeted, except that the exact certificate still respects its
    layout-count cap.  [epsilon] (default 0.05) is the base §4.1 scaling
    precision; the scheduler only ever coarsens it.

    Telemetry: a [portfolio.solve] span wrapping one [portfolio.tier.*]
    span per attempted tier; counters [portfolio.tier.<t>] (attempts),
    [portfolio.answered.<t>] (which tier won), [portfolio.deadline_hits],
    [portfolio.scaled_runs]; gauge [portfolio.estimate.viable_pairs].

    @raise Invalid_argument on a NaN or negative [deadline] or a negative
    [probes] (same contract as {!Fsa_obs.Budget.create}). *)
