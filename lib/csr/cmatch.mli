(** Matches: pairs of sites from fragments of different species, and the
    match score MS of Def 4.

    A match records which fragment and site it uses on each side and the
    relative orientation: [m_reversed = true] means the H-site content is
    aligned against the reversal of the M-site content.

    Classification (Def 3): a match is a {e full match} when at least one
    site is the full fragment, and a {e border match} when both sites are
    border-shaped (a proper prefix or suffix).  Any other shape combination
    cannot arise from a conjecture pair.

    Border geometry (Fig 8): in a layout, a border match glues an end of one
    fragment to an end of the other, so with both fragments forward an
    H-suffix can meet an M-prefix or vice versa; equal shapes
    (prefix/prefix, suffix/suffix) are only realizable with one fragment
    reversed.  Hence the orientation is {e determined} by the shapes:
    opposite shapes ⇒ forward, equal shapes ⇒ reversed. *)

open Fsa_seq

type t = {
  h_frag : int;
  h_site : Site.t;
  m_frag : int;
  m_site : Site.t;
  m_reversed : bool;
  score : float;
}

type kind = Full_match | Border_match

val classify : Instance.t -> t -> kind option
(** [None] when the shape combination is not realizable (inner×inner,
    inner×border, or a border×border pair whose orientation contradicts its
    shapes). *)

val recompute_score : Instance.t -> t -> float
(** P_score of the oriented site words (H-site content forward, M-site
    content reversed iff [m_reversed]) — the match's score under σ with the
    recorded orientation.  Probes σ through {!Fsa_seq.Scoring.dense}, so it
    works from any domain.
    @raise Invalid_argument when a site exceeds its fragment. *)

val full :
  Instance.t -> full_side:Species.t -> int -> other_frag:int -> other_site:Site.t -> t
(** Best full match plugging the whole fragment [full_side, index] into
    [other_site] of fragment [other_frag] on the other side: evaluates both
    orientations (Def 4 / Fig 7) and records the winner.  Backed by
    {!full_table}, so results are memoized on the instance (σ must not be
    mutated after construction; see {!Instance.with_sigma}) and a repeat
    probe of any site of the same fragment pair is O(1). *)

type site_table
(** MS values of {e every} site of one (full fragment, host fragment) pair:
    the unit of memoization.  Built once per pair in O(full·host²) by the
    all-windows column kernel ({!Fsa_align.Region_align.ms_windows_fwd}) —
    amortized O(full) per site versus O(full·site) for a fresh alignment —
    and bit-identical to per-site {!Fsa_align.Region_align.ms_full} calls. *)

val full_table : Instance.t -> full_side:Species.t -> int -> other_frag:int -> site_table
(** Memoized in the instance's {!Memo}, which any domain may read and fill:
    one instance never builds the same table twice, unless two domains
    race on it.  Builds and hits are counted in the [cmatch.table_builds]
    and [cmatch.cache_hits] metrics. *)

val table_ms : site_table -> lo:int -> hi:int -> float * bool
(** MS of the host site [lo, hi] and whether the reversed orientation
    attains it (ties prefer forward, as in {!Fsa_align.Region_align.ms_full}). *)

val border :
  Instance.t -> h_frag:int -> h_site:Site.t -> m_frag:int -> m_site:Site.t -> t option
(** Border match on two border-shaped sites; the orientation is forced by
    the shapes (see above).  [None] if either site is not border-shaped. *)

val site_of : t -> Species.t -> Site.t
val frag_of : t -> Species.t -> int
val equal : t -> t -> bool
val pp : Instance.t -> Format.formatter -> t -> unit
