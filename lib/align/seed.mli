(** Seed-and-extend homology search (a miniature BLAST).

    This is the conserved-region detector used by the genome pipeline: exact
    k-mer seeds between a target and a query (both strands), merged along
    diagonals and extended without gaps under an x-drop rule.  It substitutes
    for the precomputed alignments the paper assumes as input.

    Both sides are sampled by (w,k)-minimizers (Roberts et al., Bioinformatics
    2004): of every w = 10 consecutive k-mers of a sequence, only the one
    whose key is least under a fixed bijective mix of its 2k bits (the
    leftmost on ties) is indexed or probed, about 2/(w+1) of all k-mers.
    A sequence of fewer than w k-mers has none.

    The guarantee: any stretch of w + k - 1 bases that target and query
    share exactly, on either strand, holds a whole window, so both sample
    its minimizer and the scan hits the stretch's diagonal (unless that
    minimizer is dropped as a repeat); the hit's run is extended over the
    whole stretch.  Runs merge the hits on a diagonal whose starts lie
    within k + [max_gap].  [max_gap] (default 32) is at least
    2(w - 1) + 4, so a run bridges every damaged stretch of up to 4 bases
    between two shared stretches, as the runs of an index of every k-mer
    did at [max_gap] 4. *)

open Fsa_seq

type index
(** Sorted minimizer index of one or more targets. *)

val index_targets : ?max_occ:int -> k:int -> Dna.t array -> index
(** Each target's minimizers, found in one pass per target onto flat int
    arrays, then sorted by mixed key, each with a (target, position)
    payload packed as [(target lsl 32) lor position].  One pass over the n
    minimizers counts them per value of the keys' top s bits, a second
    scatters each into that part, and each part is then LSD-radix-sorted on
    its other 2k − s bits (8-bit digits) with scratch the size of the
    largest part.  s = min(8, 2k, max(0, b − 10)), b the bit length of n,
    so parts average 2{^9}–2{^10} entries, in cache, until s reaches 8
    (from 2{^17} entries); under 2{^10} entries the index is one sort.
    [max_occ] (default 32) applies per (key, target): a minimizer sampled
    more than [max_occ] times in one target is dropped from that target
    only, as a repeat.  Sampling and dropping are per target, so each
    target's entries are exactly those of its own one-target index.
    Targets of fewer than w k-mers contribute nothing.

    One pass over the kept entries then builds two side tables for
    probes: a directory of first-entry offsets per key prefix
    (2{^(b-4)} slots, b the bit length of the kept count) and a presence
    bitmap over a longer prefix (2{^(b+2)} bits), each prefix at most the
    key's 2k bits.  An index is immutable and reusable across any number
    of scans.  Telemetry: one [seed.index] span per build, and the entries
    kept added to [seed.index_entries].
    @raise Invalid_argument unless [1 <= k <= 30], or when a target
    exceeds 2{^31} bases ([check_lengths ~target ~query:0]). *)

val build_index : ?max_occ:int -> k:int -> Dna.t -> index
(** The one-target index: [index_targets ?max_occ ~k [| target |]]. *)

type anchor = {
  t_lo : int;
  t_hi : int;  (** inclusive target range *)
  q_lo : int;
  q_hi : int;  (** inclusive query range, always in forward-query coordinates *)
  forward : bool;  (** false when the query matches the reverse strand *)
  score : float;
}

val anchors :
  ?max_gap:int ->
  ?x_drop:float ->
  ?min_score:float ->
  index ->
  target:Dna.t ->
  query:Dna.t ->
  anchor list
(** All x-drop-extended diagonal runs of seeds with score at least
    [min_score] (default 20), both strands, sorted by decreasing score, for
    an index of the one [target] ({!build_index}).  [max_gap] (default 32)
    is the largest seed-to-seed gap merged into one run along a diagonal.
    The one-target case of {!scan}: each strand is scanned as there, and
    the two are combined by {!join_strands}.
    @raise Invalid_argument unless the index holds exactly one target, or
    when target and query together exceed 2{^31} bases (see
    {!check_lengths}). *)

val scan : ?min_score:float -> index -> (Dna.t * bool) array -> anchor list array array
(** [scan idx strands] scans each query strand against every target of
    [idx] at once.  A strand [(query, forward)] is [query] itself when
    [forward], else its reverse complement (built here, once); anchor
    query coordinates are on the forward query either way.
    [(scan idx strands).(i).(t)] is strand [i]'s anchor list on target
    [t], in the order {!join_strands} expects, at {!anchors}' default
    [max_gap] and [x_drop]: [join_strands] of a query's two strands on
    target [t] equals [anchors ?min_score] on target [t]'s own index.

    A strand's k-mers are rolled once, in query order, and each of its
    minimizers probes the index: a key whose bitmap bit is clear costs one
    test, and the rest binary-search their directory bucket.  The hits
    are bucketed per target, and each bucket is radix-sorted by distinct
    (diagonal, query position) keys and merged into runs.  The strands
    share one set of scratch buffers, so a caller scanning several
    strands passes them in one call.  Telemetry: one [seed.anchors] span
    per strand; [seed.hits] counts the hits bucketed, over all targets,
    and [seed.runs_extended] and [seed.anchors_filtered] count as
    [anchors] does.
    @raise Invalid_argument when a target at least [k] long and a strand
    together exceed 2{^31} bases. *)

val join_strands : anchor list -> anchor list -> anchor list
(** [join_strands fwd rev] is one (target, query) pair's anchors as
    {!anchors} returns them: the forward strand's then the reverse
    strand's, stably sorted by decreasing score.  Counts them in
    [seed.anchors_found]. *)

val check_lengths : target:int -> query:int -> unit
(** A scan packs each seed hit into one int: its diagonal plus the query
    length, shifted past the query position's bits (the bit length of the
    query length, at most 31).  That fits while [target + query <= 2^31]
    bases; the index's payload needs each target's length within 2{^31}.
    @raise Invalid_argument past that limit. *)

val xdrop_extend :
  x_drop:float ->
  target:Dna.t ->
  query:Dna.t ->
  t_pos:int ->
  q_pos:int ->
  step:int ->
  unit ->
  float * int
(** Ungapped x-drop extension, the kernel behind [anchors]: scores
    [target.(t_pos + step * i)] against [query.(q_pos + step * i)] for
    [i = 0, 1, ...] and stops when the running score falls more than
    [x_drop] below its best, or a sequence ends, with pairs scored under
    {!Dna_align.default}.  [step] is 1 to extend rightwards, -1 leftwards.
    Returns the best prefix score (0 for the empty prefix) and its length in
    aligned pairs.
    @raise Invalid_argument if [step] is neither 1 nor -1. *)

val filter_dominated : anchor list -> anchor list
(** Removes anchors whose target *and* query ranges are contained in a
    higher-scoring anchor's ranges. *)
