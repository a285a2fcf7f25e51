(** The observation clock.

    Every span duration and trace timestamp goes through {!now}, which is
    guaranteed non-decreasing within the process (a monotonicized wall
    clock; see clock.ml for why a true monotonic source is unavailable
    here). *)

val now : unit -> float
(** Seconds; non-decreasing across calls. *)
