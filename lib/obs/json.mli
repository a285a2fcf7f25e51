(** Minimal self-contained JSON: enough to emit trace lines and bench
    reports, and to parse them back in tests.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering.  NaN and infinities become [null]; finite
    floats keep a fractional part so they parse back as floats. *)

val to_buffer : Buffer.t -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_float_opt : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
