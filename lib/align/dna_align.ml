open Fsa_seq

type params = { match_score : float; mismatch : float; gap : float }

let default = { match_score = 1.0; mismatch = -1.0; gap = 1.5 }

let score_fn a b i j =
  if Dna.get a i = Dna.get b j then default.match_score else default.mismatch

let global a b =
  Pairwise.global ~score:(score_fn a b) ~gap:default.gap ~la:(Dna.length a)
    ~lb:(Dna.length b)

let adaptive_global ?band ?band_cap a b =
  Pairwise.adaptive_global ~score:(score_fn a b)
    ~s_max:(Float.max default.match_score default.mismatch)
    ~gap:default.gap ?band ?band_cap ~la:(Dna.length a) ~lb:(Dna.length b) ()
