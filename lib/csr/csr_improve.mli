(** CSR_Improve (§4.4): the general algorithm, ratio 3 + ε (Theorem 6).

    Combines method I1 of {!Full_improve} with border methods I2 and I3
    generalized to carry containing sites and TPA refills: making a border
    match prepares a containing site on each fragment, breaks any 2-islands
    the two fragments belonged to, and TPA-refills the leftover zones and
    every site freed by detachments (this refill also realizes the paper's
    "combined I1" attempts on newly exposed border sites, delegating the
    choice of plug-in fragment to TPA).

    Solutions consist of 1-islands and 2-islands: stars of full matches
    around multiple fragments, at most one border match per fragment. *)

type config = {
  site_mode : Full_improve.site_mode;  (** ĝ enumeration for I1 and I2 *)
  min_gain : float;
  max_improvements : int;
}

val default_config : config

val attempts : config -> Instance.t -> Cmatch.t list -> Solution.t -> Improve.attempt list
(** [attempts config inst candidates] is the per-round attempt function
    for {!Improve.run}, over the given border candidates.  Partially
    applied, it builds the solution-independent part once — the I2
    attempts, then {!Full_improve.attempts}' I1 — and each call on a
    solution only appends that solution's I3 attempts (one family per
    current 2-island).  The list is I2, then I1, then I3; {!Improve.run}
    scans it circularly from the previous round's winner. *)

val start : Instance.t -> Solution.t
(** §4.1's reference solution, where {!solve} starts: the better of
    {!One_csr.four_approx} and {!Border_improve.matching_2approx}, the
    4-approximation on a tie. *)

val solve : ?config:config -> Instance.t -> Solution.t * Improve.stats
(** The local search of {!Improve.run} over {!attempts}, started (§4.1)
    from {!start}.  It
    ends at a local optimum (Thm 6's premise) whose score is at least that
    start's, so it keeps both cheap solvers' guarantees too.  The stats
    count the local search only. *)

val solve_budgeted :
  ?config:config ->
  Fsa_obs.Budget.t ->
  Instance.t ->
  (Solution.t * Improve.stats) Fsa_obs.Budget.outcome
(** {!solve} under a resource budget (the start, candidate enumeration and
    local search share it).  On [`Budget_exceeded] the partial is the
    solution as of the last committed improvement, or the start when none
    committed — valid but not converged; it is empty when the budget trips
    before the local search begins. *)

val solve_scaled : ?config:config -> ?epsilon:float -> Instance.t -> Solution.t

val solve_best : Instance.t -> Solution.t
(** Convenience used by examples and the genome pipeline: [fst (solve
    inst)].  The tables it builds stay in the instance's memo, so a later
    solve of the same instance reuses them, and the GC frees them with the
    instance. *)
