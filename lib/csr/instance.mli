(** CSR problem instances: two sets of fragments and a score function σ.

    An instance bundles the h-contigs, the m-contigs, the alphabet of
    conserved-region names, and σ.  Includes the paper's running example
    (Figs 2/4), a text (de)serializer, and random instance generators used
    by tests and experiments. *)

open Fsa_seq

type t = private {
  alphabet : Alphabet.t;
  h : Fragment.t array;
  m : Fragment.t array;
  sigma : Scoring.t;
  memo : Memo.t;  (** what the solvers derive from [sigma] and the fragments *)
}
(** Invariant: [sigma] must not be mutated after the instance is built —
    the solvers memoize match scores and bounds in [memo] ({!Cmatch.full},
    {!Bound}).  Derive modified instances with {!with_sigma}, which starts
    an empty memo, instead. *)

val make :
  alphabet:Alphabet.t ->
  h:Fragment.t list ->
  m:Fragment.t list ->
  sigma:Scoring.t ->
  t

val fragments : t -> Species.t -> Fragment.t array
val fragment : t -> Species.t -> int -> Fragment.t
val fragment_count : t -> Species.t -> int
val total_length : t -> Species.t -> int

val max_matches : t -> int
(** An upper bound on the number of matches any solution can contain (the
    [k] of the §4.1 scaling argument): total symbol count of the smaller
    side. *)

val with_sigma : t -> Scoring.t -> t

val paper_example : unit -> t
(** The running example of §1: h1 = ⟨a,b,c⟩, h2 = ⟨d⟩, m1 = ⟨s,t⟩,
    m2 = ⟨u,v⟩ with σ(a,s)=4, σ(a,t)=1, σ(b,tᴿ)=3, σ(c,u)=5,
    σ(d,t)=σ(d,vᴿ)=2.  Its optimum is 11 (Fig 4). *)

val to_text : t -> string
(** Line-oriented format: [H name: sym ...], [M name: sym ...],
    [S hsym msym score]; a reversed symbol is written with a trailing [']. *)

val of_text : string -> t
(** Inverse of {!to_text}.
    @raise Failure naming the line on malformed input: a line of no known
    kind, a fragment without a name or with the name of an earlier one on
    its side, or an [S] line without three fields or whose score is not a
    finite number. *)

val random_planted :
  Fsa_util.Rng.t ->
  regions:int ->
  h_fragments:int ->
  m_fragments:int ->
  inversion_rate:float ->
  noise_pairs:int ->
  t
(** A "two diverged genomes" instance: an ancestral order of [regions]
    regions is cut into [h_fragments] contigs on the H side; the M side uses
    the same region sequence with segment inversions applied at
    [inversion_rate] (per region, a geometric-length segment is reversed),
    then cut into [m_fragments] contigs.  σ scores each region against
    itself (uniform in [1, 10], orientation reflecting the inversions) plus
    [noise_pairs] random spurious entries (uniform in [0.5, 3]). *)

val random_sparse :
  Fsa_util.Rng.t ->
  regions:int ->
  h_fragments:int ->
  m_fragments:int ->
  inversion_rate:float ->
  noise_pairs:int ->
  noise_span:int ->
  t
(** Like {!random_planted}, but each noise pair links regions at most
    [noise_span] ancestral positions apart.  Since conserved self-matches
    are diagonal already, all of σ is then band-diagonal: fragment pairs
    covering disjoint stretches of the ancestral order share no σ entries,
    which is the sparse overlap structure of real comparative-genomics
    inputs and the regime where {!Bound} pruning pays off. *)

val random_uniform :
  Fsa_util.Rng.t ->
  regions:int ->
  h_fragments:int ->
  m_fragments:int ->
  density:float ->
  t
(** Fully random: both sides are independent random orderings/orientations
    of all regions, and each (h-region, m-region, orientation) class gets a
    score uniform in [0, 10] with probability [density]. *)

val pp : Format.formatter -> t -> unit
