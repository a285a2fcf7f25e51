(** Alignment score functions σ : Σ̃ × Σ̃ → ℝ (paper §2.1).

    σ respects the reversal symmetry σ(a,b) = σ(aᴿ,bᴿ); consequently a score
    entry depends only on the two region ids and their *relative*
    orientation.  The first argument ranges over H-side symbols and the
    second over M-side symbols; σ is not assumed symmetric in its arguments.
    Unset pairs score 0, and the padding symbol ⊥ always scores 0 against
    everything (handled by {!Padded}). *)

type t

val create : unit -> t

val set : t -> Symbol.t -> Symbol.t -> float -> unit
(** [set t a b v] defines σ(a,b) = σ(aᴿ,bᴿ) = v, overwriting any previous
    value for that (ids, relative orientation) class. *)

val get : t -> Symbol.t -> Symbol.t -> float
(** 0 when unset. *)

val of_list : (Symbol.t * Symbol.t * float) list -> t

type dense
(** Flat-array view of a table, for inner loops that cannot afford
    {!get}'s key allocation and hashing: probing is one array read.  When
    the region-id range would need more than 4M float cells the view
    probes the hashed table instead, so it always exists. *)

val dense : t -> dense
(** The table's view, built in O(table) on first use and memoized on the
    table.  {!set} drops the memo, so a later call returns a view of the
    current entries (a view already taken does not follow).  Safe to call
    from any domain. *)

val dense_get : dense -> Symbol.t -> Symbol.t -> float
(** Same value as {!get} on the table the view was taken from, including
    the 0 default for unset pairs. *)

val dense_get_rev : dense -> Symbol.t -> Symbol.t -> float
(** [dense_get_rev d a b] is [dense_get d a (Symbol.reverse b)], without
    building the reversed symbol. *)

val positive_pairs : t -> (int * int * bool * float) list
(** All stored entries with positive score as
    [(h_region, m_region, opposite_orientation, score)], the canonical class
    representation.  Order unspecified. *)

val entries : t -> (int * int * bool * float) list
(** All stored entries, including non-positive ones. *)

val max_score : t -> float
(** Largest stored score (0 when empty). *)

val scale : t -> float -> t
(** New table with every score multiplied by the factor. *)

val truncate_to_multiples : t -> float -> t
(** [truncate_to_multiples t unit] rounds every score *down* to a multiple of
    [unit] — the Chandra–Halldórsson scaling step of §4.1.  A score whose
    quotient by [unit] is past float range stays as it is.
    @raise Invalid_argument unless [unit > 0]. *)

val random_bijective :
  Fsa_util.Rng.t ->
  regions:int ->
  lo:float ->
  hi:float ->
  reversed_fraction:float ->
  t
(** UCSR-style σ: each region matches only itself, with score uniform in
    [\[lo, hi\]], and with probability [reversed_fraction] the match is
    between opposite orientations. *)

val pp : (int -> string) -> Format.formatter -> t -> unit
