(** Consistent sets of matches: the working state of every CSR algorithm.

    A solution is a set of matches (§2.2).  Consistency — producibility from
    a conjecture pair (Def 2) — is equivalent to the conjunction of local
    conditions, which [validate] checks and on which all mutators keep an
    invariant:

    - per fragment, the matched sites are pairwise disjoint;
    - every match is a full match or a shape/orientation-compatible border
      match ({!Cmatch.classify});
    - the graph whose edges are border matches is a union of simple paths
      (each fragment end carries at most one border match, no cycles).

    The structure also implements Def 5's vocabulary: simple/multiple
    fragments, contributions Cb, hidden sites, and site {e preparation}
    (§4.2) — the detach/restrict step every improvement method starts with. *)

open Fsa_seq

type t

val empty : Instance.t -> t
val instance : t -> Instance.t
val matches : t -> Cmatch.t list
val score : t -> float
val size : t -> int

val of_matches : Instance.t -> Cmatch.t list -> (t, string) result
(** Validates consistency; scores are recomputed and must agree (1e-9). *)

val validate : t -> (unit, string) result
(** Re-checks every invariant from scratch (tests call this after every
    algorithm step). *)

val unchecked_of_matches : Instance.t -> Cmatch.t list -> t
(** {!of_matches} without the consistency check: builds the indexed
    structure around whatever match list is given.  For the checking
    harness ([Fsa_check]) and tests that must inject deliberately
    inconsistent solutions to exercise downstream error paths; algorithms
    must use {!of_matches}/{!add}. *)

val matches_on : t -> Species.t -> int -> Cmatch.t list
(** Matches touching the fragment, sorted by their site on it. *)

val contribution : t -> Species.t -> int -> float
(** Cb(f, S): total score of matches involving the fragment. *)

type role = Unmatched | Simple | Multiple
(** [Simple]: exactly one match, via the fragment's full site (the fragment
    is plugged somewhere as a unit).  [Multiple]: any other matched state —
    several matches, or a single match through a proper sub-site (including
    the two ends of a 2-island). *)

val role : t -> Species.t -> int -> role

val occupied : t -> Species.t -> int -> Site.t list
(** Matched sites of a fragment, sorted, pairwise disjoint. *)

val free_sites : t -> Species.t -> int -> Site.t list
(** Maximal unmatched intervals of a fragment. *)

val is_hidden : t -> Species.t -> int -> Site.t -> bool
(** Def 5: strictly inside some matched site of that fragment. *)

val border_match_of : t -> Species.t -> int -> Cmatch.t option
(** The fragment's border match, if any (at most one per fragment end; this
    returns the first and [border_matches_of] all). *)

val border_matches_of : t -> Species.t -> int -> Cmatch.t list

val add : t -> Cmatch.t -> (t, string) result
(** Adds one match, revalidating the invariant incrementally. *)

val add_exn : t -> Cmatch.t -> t
val remove : t -> Cmatch.t -> t

type freed = { side : Species.t; frag : int; site : Site.t }
(** A site freed on some {e other} fragment because its occupant was
    detached during preparation — the paper's "detached from site f̄1"
    hand-off that triggers an extra TPA run. *)

val prepare : t -> Species.t -> int -> Site.t -> (t * freed list) option
(** Prepares a site (§4.2): [None] if it is hidden.  Otherwise removes or
    restricts every match overlapping it on that fragment: a simple
    fragment is detached outright; a multiple fragment's overlapping
    matches are restricted to their part outside the site (removed when
    nothing remains).  Restriction recomputes scores.  Freed full-match
    hosts and orphaned border partners are reported for follow-up fills.
    When no match on the fragment overlaps the site, the result is
    [Some (t, [])] — the argument itself, not a copy. *)

val to_text : t -> string
(** Line-oriented serialization, one match per line:
    [M <h-frag> <h-lo> <h-hi> <m-frag> <m-lo> <m-hi> <fwd|rev>], fragments
    by name.  Scores are not stored (recomputed on parse). *)

val of_text : Instance.t -> string -> (t, string) result
(** Inverse of {!to_text} against the given instance (fragment names must
    be unique per side); validates consistency. *)

val islands : t -> (Species.t * int) list list
(** Connected components of the solution graph containing at least one
    match; singletons (unmatched fragments) are omitted. *)

val pp : Format.formatter -> t -> unit
