(** Sparse colinear chaining of seed anchors, and gapped stitching of the
    resulting chains under the adaptive banded kernel.

    This is the middle stage of the seed → chain → band discovery pipeline:
    {!Seed.anchors} finds ungapped diagonal runs, [chains] groups the
    mutually colinear ones into candidate homologous fragment pairs, and
    [stitch] turns a chain into an exact gapped alignment score by summing
    the anchor diagonals and aligning every inter-anchor gap with
    {!Dna_align.adaptive_global} (provably identical to the full kernel). *)

open Fsa_seq

type t = {
  anchors : Seed.anchor array;
      (** members in increasing target order; strictly colinear (target and
          strand-query both strictly increasing), single strand *)
  forward : bool;
  score : float;  (** chain DP score: anchor scores minus gap penalties *)
  t_lo : int;
  t_hi : int;  (** inclusive target envelope *)
  q_lo : int;
  q_hi : int;  (** inclusive forward-query envelope *)
}

val chains : ?max_gap:int -> Seed.anchor list -> t list
(** Sparse chaining DP per strand: anchors sorted by target position, each
    anchor links to the best predecessor within the last 64 sorted anchors
    whose target and strand-query coordinates both strictly precede it and
    whose gaps do not exceed [max_gap] (default 300) bases on either
    sequence.  A link costs 0.5 per gap or overlap base.  Chains are peeled
    best-end first — each anchor belongs to exactly one chain — and
    returned sorted by decreasing score, dropping those with a negative
    score.  O(64·n) after the sort.  Telemetry: [chain.chains_built],
    [chain.anchors_chained], [chain.dp_pairs] counters, [chain.build]
    span. *)

type stitched = {
  chain : t;
  score : float;
      (** exact gapped alignment score of the chain region: ungapped anchor
          diagonals plus globally aligned inter-anchor gaps (overlaps
          trimmed exactly) *)
  widenings : int;  (** band doublings summed over gap alignments *)
  fallbacks : int;  (** gap alignments that hit the band cap *)
}

val stitch :
  ?band:int ->
  ?band_cap:int ->
  ?gap_kernel:[ `Adaptive | `Full ] ->
  target:Dna.t ->
  query:Dna.t ->
  t ->
  stitched
(** Scores a chain's region exactly.  Reverse chains are stitched against
    the reverse complement of the chain's query span [[q_lo, q_hi]] only
    (anchor coordinates mapped by j ↦ q_hi - j), not of the whole query.
    [gap_kernel] selects the inter-anchor gap kernel:
    [`Adaptive] (default) uses {!Dna_align.adaptive_global} — score-identical
    to the full kernel by its certificate — while [`Full] runs
    {!Dna_align.global} directly (the test oracle).  Telemetry:
    [chain.stitch] span; the adaptive kernel's [band.*] counters tick
    underneath. *)
