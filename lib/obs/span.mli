(** Hierarchical timed spans.

    [with_ ~name f] runs [f] and, when observation is on, measures its
    wall-clock time and GC allocation deltas ([Gc.minor_words] and
    [Gc.counters]' live major words, so a direct major allocation counts
    at once).  The measurement is recorded twice: aggregated
    per name into the current registry, and emitted as a
    [Span_begin]/[Span_end] event pair (carrying the nesting depth) to the
    current sink.  When observation is off, [with_ ~name f] is [f ()] plus
    one branch.  Spans nest; the end event fires even when [f] raises. *)

val with_ : name:string -> (unit -> 'a) -> 'a

val phase : string -> unit
(** Emit a phase-change marker to the trace stream. *)

val current_depth : unit -> int
(** Nesting depth of the innermost open span (0 at top level). *)
