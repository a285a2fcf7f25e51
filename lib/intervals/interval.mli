(** Closed integer intervals [\[lo, hi\]].

    This is the abstract domain of the interval selection problem (paper
    §3.4); it is deliberately independent of the sequence layer. *)

type t = { lo : int; hi : int }

val make : int -> int -> t
(** Requires [lo <= hi]. *)

val length : t -> int
val overlaps : t -> t -> bool
val disjoint : t -> t -> bool
val contains : t -> t -> bool
(** [contains outer inner]. *)

val touches : t -> t -> bool
(** Overlapping or adjacent. *)

val intersect : t -> t -> t option
val hull : t -> t -> t
val compare_by_hi : t -> t -> int
(** Right endpoint, then left. *)

val compare : t -> t -> int
(** Left endpoint, then right. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
