(** Admissible upper bounds on match scores, for pruning table work.

    [ms_bound] returns, in O(|full fragment|) after per-instance
    precomputation, a value that is {e guaranteed} to dominate the MS of
    the given (full fragment, host fragment) pair at every host site and in
    both orientations (and every border match of the pair, which aligns
    sub-words of the same two fragments).  Solvers use it through
    {!pair_viable} to skip {!Cmatch.full_table} construction and candidate
    generation for pairs that provably cannot contribute: a pair is pruned
    only when its bound is [<= threshold], while every consumer requires a
    {e strictly} greater score to keep a candidate, so pruning is
    output-preserving bit for bit (see DESIGN.md §12 for the soundness and
    tie argument).

    The summary, its host columns and its offers are memoized on the
    instance ({!Memo}), which any domain may read and fill (σ must not be
    mutated after construction, as for {!Cmatch.full_table}). *)

val ms_bound :
  Instance.t -> full_side:Species.t -> int -> other_frag:int -> float
(** Upper bound on [fst (Cmatch.table_ms tbl ~lo ~hi)] over every site
    [lo, hi] of the host fragment, i.e. on the best full-match MS of the
    pair.  Always [>= 0].  Read from {!host_column}. *)

val host_column :
  Instance.t -> full_side:Species.t -> other_frag:int -> float array
(** [ms_bound] of every fragment on [full_side] against the host fragment
    [other_frag], indexed by fragment: the memo unit.  The whole column is
    computed on its first use; later reads, including {!ms_bound}'s, are
    array loads.  The array is the memo itself and must not be mutated. *)

val offers : Instance.t -> Species.t -> int -> float array
(** [offers inst side frag], indexed by the region ids of the other side:
    the best clipped σ ([>= 0]) that any region of fragment [frag] on
    [side] offers a symbol of that region, in either orientation.  So
    the MS of [frag] (full) against any window of a host fragment is at
    most the larger of the sums of these over the window's symbols taken
    forward and backward (DESIGN.md §12).  Built on first use; the array
    is the memo itself and must not be mutated. *)

val pair_viable :
  Instance.t ->
  full_side:Species.t ->
  int ->
  other_frag:int ->
  threshold:float ->
  bool
(** [false] only when no site of the pair can score strictly above
    [threshold] — the caller may then skip the pair entirely.  Always
    [true] when pruning is disabled.  Increments [cmatch.bound_checks] and,
    on a prune, [cmatch.pruned]. *)

val count_checks : checks:int -> pruned:int -> unit
(** Adds a batch of checks to [cmatch.bound_checks] and [cmatch.pruned],
    for callers that test [col.(idx) > threshold] on a {!host_column}
    themselves instead of calling {!pair_viable} per pair.  Such a caller
    must skip the checks, and count none, when pruning is disabled. *)

val border_viable :
  Instance.t -> h_frag:int -> m_frag:int -> threshold:float -> bool
(** Same contract for border matches of the fragment pair (any shapes, the
    orientation forced by them). *)

val enabled : unit -> bool
(** Pruning defaults to on.  [FSA_NO_PRUNE=1] disables it at startup;
    [0] keeps it on, and any other value is rejected with a [stderr]
    warning and keeps it on (see {!parse_no_prune}). *)

val parse_no_prune : string -> (bool, string) result
(** Validate an [FSA_NO_PRUNE] value: [Ok true] (pruning off) for ["1"],
    [Ok false] for ["0"], surrounding blanks ignored; anything else is an
    error. *)

val set_enabled : bool -> unit
(** Toggle pruning at runtime (used by the differential fuzz oracle to
    verify bit-identical outputs with pruning on vs off). *)
