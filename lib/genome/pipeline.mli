(** From two contig sets to a CSR instance — the end-to-end use case of the
    paper's introduction (Fig 1).

    Two modes build the instance's region alphabet and σ:

    - {e oracle}: planted region labels are used directly; σ scores a region
      against its counterpart by length × percent identity.  Isolates the
      combinatorial problem from alignment noise.
    - {e discovery}: conserved regions are re-discovered from the contig DNA
      by the seed → chain → band pipeline: {!Fsa_align.Seed} anchors are
      chained colinearly per contig pair ({!Fsa_align.Chain.chains}), each
      chain is stitched into an exact gapped score under the adaptive banded
      kernel ({!Fsa_align.Chain.stitch}), chain footprints are clustered
      into regions per side, and σ takes the best stitched score per region
      pair.  This injects realistic noise (missed, split and spurious
      regions).  One sorted seed index covers every M contig
      ({!Fsa_align.Seed.index_targets}); each H contig's two strands are
      scanned against it once ({!Fsa_align.Seed.scan}), fanned across the
      {!Fsa_parallel.Pool} by (H contig, strand) with a slot-ordered
      deterministic merge. *)

type built = Pipeline_types.built = {
  instance : Fsa_csr.Instance.t;
  h_contigs : Fragmentation.contig array;  (** instance H index → contig *)
  m_contigs : Fragmentation.contig array;
}

val oracle_instance :
  h:Fragmentation.contig list -> m:Fragmentation.contig list -> built
(** Contigs without conserved regions are omitted from the instance (an
    empty fragment carries no order/orient information). *)

exception No_regions
(** Discovery found no conserved region on one side or both: an empty
    answer, not a fault. *)

val discovery_instance :
  ?k:int ->
  ?min_anchor_score:float ->
  ?cluster_gap:int ->
  ?max_gap:int ->
  ?band:int ->
  ?band_cap:int ->
  h:Fragmentation.contig list ->
  m:Fragmentation.contig list ->
  unit ->
  built
(** Seed → chain → band.  [k] (default 12) is the seed size;
    [min_anchor_score] (default 24) filters weak anchors.  The index is
    built on the calling domain, the strand scans fan out, and then each
    (M contig, H contig) pair, M outer and H inner, joins its two strands'
    anchors, drops dominated ones, and is chained under [max_gap] (default
    300); each chain is stitched with the adaptive banded kernel ([band],
    [band_cap] forwarded to {!Fsa_align.Chain.stitch}).  Chain footprints
    closer than [cluster_gap] (default 5) bases merge into one region, and
    σ takes the best stitched score per (H region, M region, orientation).

    @raise No_regions when no conserved regions are discovered.
    @raise Invalid_argument when an M contig and an H contig together exceed
    2{^31} bases ({!Fsa_align.Seed.check_lengths}). *)

type params = {
  regions : int;
  region_len : int;
  spacer_len : int;
  h_pieces : int;
  m_pieces : int;
  substitution_rate : float;
  inversions : int;
  translocations : int;
  indels : int;  (** small random insertions/deletions in the M lineage *)
  duplications : int;  (** segmental duplications — inject region ambiguity *)
  rearrangement_len : int;
}

val default_params : params

val generate :
  Fsa_util.Rng.t -> params -> Fragmentation.contig list * Fragmentation.contig list
(** Ancestral genome → (H contigs as-is, M contigs after divergence). *)

val run :
  Fsa_util.Rng.t ->
  ?mode:[ `Oracle | `Discovery ] ->
  params ->
  solver:(Fsa_csr.Instance.t -> Fsa_csr.Solution.t) ->
  built * Fsa_csr.Solution.t * Metrics.report
(** Generate, build, solve, score against ground truth. *)
