(** Generic pairwise alignment dynamic programs.

    All DPs are generic over the pair-score function [score i j] giving
    the value of aligning element [i] of the first sequence with element [j]
    of the second; they only need the two lengths.  Concrete front-ends live
    in {!Region_align} (region words, σ tables) and {!Dna_align}
    (nucleotides). *)

type op =
  | Both of int * int  (** column pairing element i of A with element j of B *)
  | A_only of int  (** element i of A against a pad *)
  | B_only of int  (** a pad against element j of B *)

type alignment = { score : float; ops : op list }
(** [ops] lists the alignment columns left to right and covers every element
    of both sequences exactly once. *)

val max_weight_alignment :
  score:(int -> int -> float) -> la:int -> lb:int -> alignment
(** The P_score DP of paper Def 4: pads are free (cost 0), pairing [i,j]
    earns [score i j], pairs may be declined.  Equivalently global alignment
    with zero gap penalty where negative-scoring pairings are never forced.
    O(la·lb) time and space (with traceback). *)

val max_weight_score : score:(int -> int -> float) -> la:int -> lb:int -> float
(** Score only, O(min(la,lb)) space. *)

val global :
  score:(int -> int -> float) -> gap:float -> la:int -> lb:int -> alignment
(** Needleman–Wunsch with linear gap penalty [gap] (a cost; pass a
    non-negative number).  Every element appears in exactly one column. *)

val banded_global :
  score:(int -> int -> float) -> gap:float -> band:int -> la:int -> lb:int -> alignment
(** Needleman–Wunsch restricted to |i - j·la/lb| within [band] of the main
    diagonal; exact when the optimal path stays in the band. *)

type adaptive = {
  result : alignment;
  band_used : int;  (** band of the accepted run; full-kernel runs (cap
                        fallback or full band coverage) report [max la lb] *)
  widenings : int;  (** band doublings before acceptance *)
  fell_back : bool;  (** the band cap forced the exact full kernel *)
}

val adaptive_global :
  score:(int -> int -> float) ->
  s_max:float ->
  gap:float ->
  ?band:int ->
  ?band_cap:int ->
  la:int ->
  lb:int ->
  unit ->
  adaptive
(** Needleman–Wunsch via {!banded_global} under an adaptive band: run with
    [band] (default 16, clamped up to [abs (lb - la)]), accept only if the
    banded score strictly beats a provable upper bound on every path that
    leaves the band ([s_max] must dominate [score i j]; see pairwise.ml for
    the certificate), otherwise double the band; past [band_cap] (default
    2048) fall back to the exact full kernel.  The accepted alignment is
    always {e score- and ops-identical} to {!global} — the strict
    certificate pins both the optimum and the traceback — which the fuzz
    suite enforces.  Telemetry: [band.widenings], [band.fallbacks],
    [band.certified] counters.
    @raise Invalid_argument if [gap < 0] or [band < 1]. *)

val score_of_ops : score:(int -> int -> float) -> op list -> float
(** Recomputes an alignment's score from its columns (pads contribute 0).
    Used by tests as an independent check on tracebacks. *)
