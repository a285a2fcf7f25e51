(** Nucleotide-level alignment front-end: {!Pairwise} kernels under the
    [default] DNA scores, which every caller uses. *)

open Fsa_seq

type params = {
  match_score : float;
  mismatch : float;  (** score (usually negative) of a mismatched pair *)
  gap : float;  (** linear gap cost, non-negative *)
}

val default : params
(** +1 / -1 / 1.5 — a conservative BLAST-like parametrization. *)

val global : Dna.t -> Dna.t -> Pairwise.alignment

val adaptive_global : ?band:int -> ?band_cap:int -> Dna.t -> Dna.t -> Pairwise.adaptive
(** {!Pairwise.adaptive_global} with [s_max] derived from [default]:
    score- and ops-identical to {!global}, banded cost when the band
    certificate converges. *)
