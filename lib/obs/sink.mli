(** Pluggable destinations for the trace-event stream.

    Events are stamped at emission time with a monotonic timestamp and
    the ambient {!Slot} id, so buffered worker events keep their
    original time and domain when replayed into another sink after a
    pool join. *)

type stamped = { s_ts : float; s_domain : int; s_event : Event.t }
(** An event plus its emission stamp: [s_ts] is an absolute monotonic
    {!Clock.now} reading, [s_domain] the pool slot that emitted it. *)

type t = {
  emit : Event.t -> unit;  (** Stamp with now/current slot, then emit. *)
  emit_stamped : stamped -> unit;
      (** Emit with an existing stamp preserved (pool merge replay). *)
  close : unit -> unit;
}

val stamp : Event.t -> stamped
(** Stamp an event with the current clock and slot. *)

val make : emit_stamped:(stamped -> unit) -> close:(unit -> unit) -> t
(** Build a sink from its stamped emitter; [emit] is derived. *)

val null : t
(** Swallows every event.  Installing it exercises the instrumentation
    paths without producing output — solver results must be identical. *)

val trace_schema : string
(** Schema tag written as the header line of {!jsonl} files
    (["fsa-trace/2"]). *)

val jsonl : string -> t
(** One JSON object per line appended to [path].  The first line is a
    header [{"schema":"fsa-trace/2"}]; each following line carries the
    event fields of {!Event.to_json} plus a relative ["ts"] timestamp
    in seconds and the emitting ["domain"] slot.  [close] flushes and
    closes the file. *)

val memory : unit -> t * (unit -> Event.t list)
(** In-memory sink for tests; the thunk returns events in emission order. *)

val buffer : ?capacity:int -> unit -> t * (unit -> stamped list) * (unit -> int)
(** Bounded in-memory sink used for pool workers: keeps the first
    [capacity] (default 65536) stamped events, drops the rest.  Returns
    [(sink, drain, dropped)] — [drain] gives retained events in
    emission order, [dropped] how many were discarded.  Dropping the
    newest (rather than a ring) keeps the retained prefix deterministic.

    @raise Invalid_argument if [capacity < 1]. *)

val tee : t -> t -> t
(** Forward every (stamped) event to both sinks. *)
