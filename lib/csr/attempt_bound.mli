(** Admissible upper bounds on whole improvement attempts (§4.2–§4.4), so
    that the local search can refuse an attempt that cannot beat its base
    before it prepares, adds or TPA-fills anything.

    Every I1 and I2 attempt has the same skeleton: it prepares a container
    site on each of two fragments [a] and [b] of opposite sides (I2 first
    breaks their 2-islands), adds one new match, and TPA-refills the
    leftover zones and every freed site.  Its result scores at most

    {v
      base − (scores of the matches it removes outright)
           + (the new match's score)
           + Σ_j max(0, best_j − ½ · cu_j)
    v}

    where [j] ranges over the fragments the refills may plug and [cu_j] is
    [j]'s contribution once every match the attempt touches is taken off.
    [best_j] is the largest, over the refill zones [Z] on the other side's
    hosts [h], of

    {v
      min( Bound.host_column entry of j against h,
           max over the two directions of Σ_{y ∈ Z} (Bound.offers j).(y) )
    v}

    A zone is the site a touched match holds on the host it frees, or the
    container of [a] or [b] when that fragment keeps a leftover zone (the
    whole of g for I1's shared full-container shape), so every window a
    fill tries lies inside one.  A restricted match never gains (P_score
    is monotone in sub-sites); a plug lands in one window of one zone and
    matches each of its symbols at most once, so each finally plugged
    fragment's match scores at most [best_j]; plugging [j] removes every
    untouched match on [j], and the ½ covers one removed match being
    charged to the two plugged fragments it joins.  DESIGN.md §12 has the
    argument. *)

open Fsa_seq

type shape
(** The solution-independent part of an attempt.  Attempts that share one
    shape value (I1's full container across the targets of one fragment
    pair) share its sum on a base too. *)

val shape :
  side:Species.t ->
  a:int ->
  a_site:Site.t ->
  a_fill:bool ->
  b:int ->
  b_site:Site.t ->
  b_fill:bool ->
  break:bool ->
  shape
(** [a] is a fragment on [side] and [b] one on the other side.  The
    attempt prepares [a_site] on [a] and [b_site] on [b] (after removing
    every border match on both when [break]), TPA-fills leftover zones
    inside [a_site] when [a_fill] and inside [b_site] when [b_fill], and
    TPA-refills every site it frees.  The fills never plug [a] or [b]. *)

type t
(** Per-solve scratch: the contributions of the last base solution seen,
    and the host columns and {!Bound.offers} arrays read so far.  Not for
    use from two domains at once. *)

val create : Instance.t -> t

val refuses : t -> shape -> gain:float -> Solution.t -> bool
(** Whether to refuse the attempt [shape], whose new match scores [gain],
    on this base: [true] when pruning is on ({!Bound.enabled}) and the
    bound falls below the base's score [s] by more than the float margin
    [1e-9 · (1 + |s|)], far above the rounding of the score folds, so that
    no [min_gain >= 0] would accept what the attempt builds.  Stops summing
    as soon as the bound clears the margin, and counts each refusal in
    [improve.pruned].  The base's matches must be ones {!Cmatch} built
    (the solvers' own). *)

val observe : (float -> unit) -> (unit -> 'a) -> 'a
(** [observe k f] runs [f] on this domain with every check passing its
    whole bound to [k] and refusing nothing: the fuzz oracle's
    [improve.attempt_bound] property applies an attempt under it and
    compares what the attempt builds with the bound. *)
