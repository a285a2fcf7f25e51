(** Maximum-weight bipartite matching (Hungarian / Kuhn–Munkres algorithm
    with Dijkstra-style augmentation, O(n³)).

    Substrate for Lemma 9: a 2-approximation for Border CSR is an optimal
    matching of fragments under the full-match score.  The matching need not
    be perfect: leaving a vertex unmatched is always allowed and pairs only
    contribute when their weight improves the total, so weights may be
    negative or zero. *)

val solve : float array array -> (int * int) list * float
(** [solve w] for an [rows × cols] weight matrix returns the matched pairs
    [(row, col)] of a maximum-weight matching and its total weight.  Rows of
    unequal length are rejected.  Pairs of non-positive weight are never
    reported (dropping them cannot decrease the total). *)

val solve_exactly_brute : float array array -> float
(** Optimal total by exhaustive search over partial matchings — exponential,
    for cross-checking [solve] on tiny matrices in tests. *)
