(** Flight recorder: an always-cheap ring buffer of the last [capacity]
    stamped events, dumped to JSONL only when something goes wrong (a
    {!Budget} trip, an uncaught solver exception) or on demand.
    Recording costs two array writes per event, and the dump is the tail
    of the event stream leading up to the failure.

    Dumps start with a [{"schema":"fsa-flight/1","reason":...}] header
    followed by one event per line in the trace-file format (relative
    ["ts"], ["domain"], then the event fields), so [fsa_trace summarize]
    reads them directly. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 events.
    @raise Invalid_argument if [capacity < 1]. *)

val sink : t -> Sink.t
(** A sink that records into the ring.  Tee it with a real trace sink to
    get both, or install it alone for recording with no trace file.  The
    ring is single-writer: install it on one domain (the pool replays
    worker events on the caller, which satisfies this by construction). *)

val record : t -> Sink.stamped -> unit
val note : t -> string -> float -> unit
(** [note t name v] records an {!Event.Note} stamped now — used for
    out-of-band markers such as the budget-trip site. *)

val events : t -> Sink.stamped list
(** Retained events, oldest first (at most [capacity]). *)

val last_event : t -> Sink.stamped option
val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** How many of {!recorded} are no longer retained. *)

val dump : ?reason:string -> t -> string -> unit
(** [dump ?reason t path] writes header + retained events to [path]
    (default reason ["on_demand"]).  Timestamps are relative to the
    oldest retained event. *)

val dumps : t -> int
(** How many times this recorder has dumped. *)

val arm : t -> path:string -> Budget.trip_hook
(** Register a {!Budget.on_trip} hook that records a
    [flight.budget_trip.<reason>] note (so the dump's last event is the
    trip site) and dumps to [path].  A dump that cannot be written counts
    [flight.dump_errors] instead of raising.  Remove with {!disarm}. *)

val disarm : Budget.trip_hook -> unit
