(** Seed-and-extend homology search (a miniature BLAST).

    This is the conserved-region detector used by the genome pipeline: exact
    k-mer seeds between a target and a query (both strands), merged along
    diagonals and extended without gaps under an x-drop rule.  It substitutes
    for the precomputed alignments the paper assumes as input. *)

open Fsa_seq

type index
(** k-mer index of a target sequence. *)

val build_index : ?max_occ:int -> k:int -> Dna.t -> index
(** Positions of every k-mer in an open-addressing table on flat arrays: the
    positions of all k-mers share one int array, a slice per k-mer.
    K-mers occurring more than [max_occ] times (default 32) are dropped as
    repeats.  An index is immutable and reusable across any number of
    queries.
    @raise Invalid_argument unless [1 <= k <= 30]. *)

val index_k : index -> int

val lookup : index -> int -> int array
(** Target positions of a packed k-mer, in increasing order, as a fresh
    array ([[||]] for absent and dropped k-mers). *)

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
    [min_score] (default 20), both strands, sorted by decreasing score.
    [max_gap] (default 4) is the largest seed-to-seed gap merged into one run
    along a diagonal.
    @raise Invalid_argument when target and query together exceed 2{^31}
    bases (see {!check_lengths}). *)

val check_lengths : target:int -> query:int -> unit
(** [anchors] packs each seed hit into one int: its diagonal plus the query
    length in the bits above 31, its query position in the low 31.  That
    holds while [target + query <= 2^31] bases.
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
