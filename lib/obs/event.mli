(** Structured trace events emitted by instrumented solvers.

    The JSONL schema is one {!to_json} object per line, discriminated by the
    ["type"] field: [span_begin], [span_end], [phase], [move], [step],
    [note].  Sinks may add transport fields (e.g. a ["ts"] timestamp);
    {!of_json} ignores unknown fields, so trace lines round-trip. *)

type t =
  | Span_begin of { name : string; depth : int }
  | Span_end of {
      name : string;
      depth : int;
      elapsed_ns : float;
      minor_words : float;
      major_words : float;
    }  (** Wall-clock and GC/allocation deltas over the span body. *)
  | Phase of { name : string }  (** Pipeline/solver phase change. *)
  | Move of {
      solver : string;
      round : int;
      label : string;
      accepted : bool;
      score_before : float;
      score_after : float;
    }  (** One improvement attempt that was committed (or rejected). *)
  | Step of { solver : string; round : int; evaluated : int; score : float }
      (** End of one full scan over the attempt space. *)
  | Note of { name : string; value : float }  (** Free-form scalar fact. *)

val to_json : t -> Json.t
val of_json : Json.t -> t option
