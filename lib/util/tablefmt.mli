(** Plain-text table renderer for the experiment harness.

    Produces aligned, pipe-separated tables suitable for terminals and for
    verbatim inclusion in EXPERIMENTS.md.  Cells are padded by display
    width, counted as UTF-8 code points, so a ["—"] or ["r²"] cell lines
    up with ASCII ones. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** Column headers with per-column alignment. *)

val add_row : t -> string list -> unit
(** Row width must equal the header width. *)

val add_float_row : t -> ?fmt:(float -> string) -> string -> float list -> t
(** Convenience: a label column followed by formatted floats (default
    [%.4g]).  Returns [t] for chaining. *)

val render : t -> string
val print : t -> unit
(** [render] followed by a trailing newline on stdout. *)
