(** Nucleotide sequences: the base-level substrate under the region-level
    CSR model.

    The paper's regions are stretches of genomic DNA; the synthetic genome
    pipeline ({!Fsa_genome}) manufactures DNA, evolves it, and rediscovers
    conserved regions with the {!Fsa_align} seed-and-extend search.  Bases
    are stored one byte per nucleotide (characters A, C, G, T). *)

type t

val of_string : string -> t
(** @raise Invalid_argument on characters outside ACGT (case-insensitive
    input is upcased). *)

val to_string : t -> string
val length : t -> int
val get : t -> int -> char
val sub : t -> pos:int -> len:int -> t
val concat : t list -> t
val equal : t -> t -> bool

val complement_base : char -> char
val reverse_complement : t -> t

val random : Fsa_util.Rng.t -> int -> t
(** Uniform bases. *)

val random_gc : Fsa_util.Rng.t -> gc:float -> int -> t
(** Bases drawn with the given GC content. *)

val gc_content : t -> float

val point_mutate : Fsa_util.Rng.t -> rate:float -> t -> t
(** Independently substitutes each base with probability [rate] (substituted
    base is always different from the original). *)

val hamming : t -> t -> int
(** @raise Invalid_argument on length mismatch. *)

val identity : t -> t -> float
(** Fraction of equal positions (length mismatch compares the overlap and
    counts the overhang as mismatches). *)

val fold_kmers : k:int -> t -> init:'a -> f:('a -> pos:int -> kmer:int -> 'a) -> 'a
(** Folds over all k-mers as 2-bit packed integers (A=0 C=1 G=2 T=3, high
    bits first).  Requires [1 <= k <= 30]. *)

val pack_kmer : t -> pos:int -> k:int -> int

val base_code : char -> int
(** A base's 2-bit code in {!fold_kmers}' packing (A=0 C=1 G=2 T=3), one
    table load: for kernels that roll k-mers in their own loop. *)

val unsafe_bytes : t -> Bytes.t
(** The bases themselves, shared, not copied: for kernels that read one
    base per inner-loop step and cannot afford a cross-module {!get} call
    for each.  Do not mutate. *)

val pp : Format.formatter -> t -> unit
