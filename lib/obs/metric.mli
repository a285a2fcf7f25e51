(** Typed metric handles.  A handle is cheap to create (it is just the
    metric name), safe to keep in module toplevels, and writes to whatever
    registry is installed at call time.  With none installed, {!Counter}
    and {!Histogram.observe_int} allocate nothing: their int arguments
    become floats only inside the registry branch. *)

module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val make : string -> t
  val name : t -> string
  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val make : string -> t
  val name : t -> string
  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
end
