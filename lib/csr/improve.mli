(** The iterative-improvement framework of §4.1.

    The three algorithms (Full_Improve, Border_Improve, CSR_Improve) share
    this skeleton: start from a solution, repeatedly evaluate improvement
    attempts and commit any with positive gain, stop when none exists.
    This module provides the loop, the shared TPA-fill subroutine
    (§4.2's [TPA(B, S)]), and the Chandra–Halldórsson scaling wrapper that
    bounds the number of improvements. *)

type attempt = {
  label : unit -> string;
      (** Human-readable name of the attempt, formatted on demand: {!run}
          forces it only for a committed attempt, and only while tracing
          (for its [Move] event), so an attempt space of thousands of
          entries pays for no string it never prints. *)
  apply : Solution.t -> Solution.t option;
      (** The candidate successor solution, or [None] when the attempt is
          not applicable to the current solution (hidden target, missing
          2-island, ...) or, with pruning on, when an admissible bound
          shows that it cannot reach the current score
          ({!Attempt_bound.refuses}).  Must leave its argument
          unmodified. *)
}

type stats = {
  rounds : int;
      (** scans performed over the attempt space, counted when the scan
          starts: a run that converges immediately reports 1 round, a run
          with [n] committed improvements reports [n] or [n + 1] rounds
          (the latter when it ran a final empty scan to prove convergence
          rather than stopping at [max_improvements]).  The [Step]/[Move]
          events of a scan carry this same 1-based round number. *)
  improvements : int;  (** committed attempts *)
  evaluated : int;  (** attempts whose gain was computed *)
}

val run :
  ?min_gain:float ->
  ?max_improvements:int ->
  ?name:string ->
  attempts:(Solution.t -> attempt list) ->
  init:Solution.t ->
  unit ->
  Solution.t * stats
(** First-improvement local search: commit the first attempt whose gain
    exceeds [min_gain] (default 1e-9), scanning circularly from the previous
    round's winner (modulo the round's list length; round 1 starts at 0);
    finish when one full pass commits nothing, a local optimum of the
    attempt space, or when [max_improvements] (default 100_000) is reached.
    A negative [min_gain] is rejected ([Invalid_argument]): attempts refuse
    themselves once they cannot reach the current score, which is sound
    only when no loss is accepted.

    Telemetry (no-op unless [Fsa_obs] observation is on): the whole loop is
    wrapped in a span [<name>.run] ([name] defaults to ["improve"]); every
    committed attempt emits a [Move] event with its label (the one place a
    label is forced) and score delta;
    every exhausted scan emits a [Step] event; counters
    [improve.evaluated]/[improve.accepted]/[improve.rejected] aggregate
    across rounds.  Every attempt evaluation passes a {!Fsa_obs.Budget}
    checkpoint. *)

val run_budgeted :
  ?min_gain:float ->
  ?max_improvements:int ->
  ?name:string ->
  attempts:(Solution.t -> attempt list) ->
  init:Solution.t ->
  Fsa_obs.Budget.t ->
  unit ->
  (Solution.t * stats) Fsa_obs.Budget.outcome
(** {!run} under a resource budget.  On [`Budget_exceeded] the partial is
    the solution (and stats) as of the last committed improvement — local
    search always holds a valid solution, so cutting it anywhere is safe;
    only convergence is lost. *)

val tpa_fill :
  Solution.t ->
  host:Species.t * int ->
  zones:Fsa_seq.Site.t list ->
  exclude:int list ->
  Solution.t
(** The TPA(B, S) subroutine: fills the free [zones] of the host fragment
    with full matches of other-side fragments (except [exclude]), using the
    two-phase ISP algorithm with profits MS(f, site) − Cb(f, S).  Selected
    fragments are detached from their current matches and re-plugged.
    Zones must be free in [S]. *)

val rescore : Instance.t -> Solution.t -> Solution.t
(** The same matches (sites and orientations) rescored under the σ of the
    given instance — used to lift a solution of a scaled instance back. *)

val check_epsilon : string -> float -> unit
(** [check_epsilon who eps] raises [Invalid_argument], naming [who], unless
    the scaling precision [eps] is positive and finite.  {!with_scaling}
    and the anytime portfolio check theirs with it, before any work. *)

val truncated_instance :
  ?epsilon:float -> reference:float -> Instance.t -> (Instance.t * float) option
(** The §4.1 truncated instance for a known reference score X: σ entries
    rounded down to multiples of u = εX/k (k = {!Instance.max_matches}),
    for an ε that passed {!check_epsilon}; returns the instance and u, or
    [None] when [reference <= 0] (nothing positive to scale against).
    Callers must {!rescore} solutions of the truncated instance back under
    the original σ.  This is the scaling core of {!with_scaling}, exposed
    so schedulers that already hold a reference score (e.g. the anytime
    portfolio, which reuses its 4-approximation tier's result) can scale
    without re-running the reference algorithm. *)

val with_scaling :
  ?epsilon:float -> Instance.t -> (Instance.t -> Solution.t) -> Solution.t
(** §4.1 scaling: obtain a reference score X from the ISP 4-approximation,
    truncate σ to multiples of u = εX/k (k = {!Instance.max_matches}), run
    the given algorithm on the truncated instance, and rescore the result
    under the true σ.

    This deviates from the paper deliberately.  §4.1 truncates {e match}
    scores to multiples of X/k², because a solution may contain up to k
    matches and the argument needs a polynomial bound on the number of
    distinct gain values.  We truncate the {e σ entries} instead, which
    keeps MS additive (a match score is the sum of its alignment's σ
    entries, so it is automatically a multiple of u) and supports the same
    argument with k in place of k²:

    - {e Termination.}  Every solution score on the truncated instance is a
      multiple of u, so any accepted improvement gains at least u = εX/k.
      Scores never exceed Opt ≤ 4X (X is a 4-approximation), so at most
      4X/u = 4k/ε improvements commit — polynomial, as required.
    - {e Loss.}  A solution aligns at most k symbol pairs in total (each
      pair consumes a symbol of the smaller side, of which there are
      exactly k), and each σ entry loses less than u to truncation, so
      Score(S) − Score_trunc(S) < k·u = εX ≤ ε·Opt for every solution S.
      An algorithm with ratio r on the truncated instance therefore yields,
      after rescoring, at least (Opt − εX)/r ≥ Opt·(1 − ε)/r: the
      truncation costs at most a (1+O(ε)) factor in the ratio, exactly as
      in the paper — with a coarser (hence cheaper) unit, εX/k instead of
      the paper's X/k². *)
