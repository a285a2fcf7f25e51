(** Differential and structural oracles over one CSR instance.

    Every named property either passes silently or produces a {!failure};
    an exception escaping a solver or checker is itself a failure of the
    property that ran it (crash = bug, the whole point of the harness).

    The properties fall into three groups:

    - {e structural}: each solver's output passes
      {!Fsa_csr.Solution.validate}, lays out as a conjecture pair whose
      column score round-trips to the claimed solution score (Remark 1),
      and survives the text serialization round-trip;
    - {e differential}: no approximate solver beats
      {!Fsa_csr.Exact.solve} (instances are kept at ≤ 4 fragments per
      side, where the exhaustive search is the affordable ground truth),
      and the exact witness layout reproduces the reported optimum;
    - {e ratio}: the proven guarantees hold as inequalities —
      CSR_Improve ≥ Opt/3 (Thm 6, the 3+ε bound with the ε of scaling
      removed), the scaled variant ≥ Opt·(1−ε)/3, the TPA route ≥ Opt/4
      (Cor 1), the exact-ISP doubling ≥ Opt/2 (Thm 3), and TPA ≥
      IspOpt/2 on the derived interval instance; CSR_Improve ≥ the better
      of the 4-approximation and the matching, its local search's start;
      and Thms 4–6's premise: no attempt of Full/Border/CSR_Improve's own
      space improves its output. *)

type failure = { property : string; detail : string }

val property_names : string list
(** Every property the oracle knows, in evaluation order. *)

val run : Fsa_csr.Instance.t -> failure list
(** Evaluate every property; solver outputs and the exact optimum are
    computed once and shared.  Empty list = instance passes. *)

val fails : string -> Fsa_csr.Instance.t -> bool
(** Does the named property (alone) fail on this instance?  The shrinking
    predicate: re-solves from scratch, so the answer is self-contained.
    Unknown property names raise [Invalid_argument]. *)
