(** The two species sides of a CSR instance. *)

type t = H | M

val other : t -> t
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
