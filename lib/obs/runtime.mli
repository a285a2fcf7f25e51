(** Ambient observation state: at most one event sink and one metric
    registry per domain, both [None] by default.  Instrumentation sites
    check {!observing} (one domain-local bool read) before building any
    event or touching any table, so disabled telemetry is effectively
    free.

    The state is {e domain-local}: installing a sink or registry affects
    only the calling domain, so parallel workers never race on the
    caller's trace stream or counters.  [Fsa_parallel.Pool] installs
    per-worker scratch registries and bounded buffer sinks during a
    batch, and merges both into the caller's after the join, in slot
    order. *)

val set_sink : Sink.t option -> unit
(** Install (or remove) the event sink.  The caller keeps ownership: call
    [Sink.close] yourself when done. *)

val set_registry : Registry.t option -> unit
val sink : unit -> Sink.t option
val registry : unit -> Registry.t option

val observing : unit -> bool
(** True iff a sink or a registry is installed. *)

val tracing : unit -> bool
(** True iff a sink is installed (events will actually go somewhere). *)

val emit : Event.t -> unit
(** Send one event to the current sink, if any.  Callers should guard with
    {!tracing} (or {!observing}) to avoid allocating events when disabled. *)

val with_observation :
  ?sink:Sink.t -> ?registry:Registry.t -> (unit -> 'a) -> 'a
(** Run [f] with the given sink/registry installed, restoring the previous
    configuration afterwards (also on exceptions).  Omitted arguments mean
    "off", not "keep". *)
