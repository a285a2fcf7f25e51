(** The ambient domain-slot id: which pool slot the current domain is
    running as.  Defaults to [0] (the calling/main domain); the domain
    pool sets a worker's slot for the extent of each batch.  {!Sink}
    stamps the current slot onto every event, which is what turns one
    JSONL stream into per-domain trace tracks.

    Slot ids are pool slots, not [Domain.self ()] values: slot
    assignment is static, so the stamps are deterministic across
    reruns. *)

val get : unit -> int

val set : int -> unit
(** @raise Invalid_argument on a negative slot id. *)
