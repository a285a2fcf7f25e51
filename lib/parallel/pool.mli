(** A process-wide domain pool with a deterministic fan-out/merge
    combinator, used by discovery ([Fsa_genome.Pipeline.discovery_instance]).
    The CSR solvers do not use it: they run on the calling domain.

    The pool exists to make parallel runs {e bit-identical} to sequential
    ones.  Work items are chunked by index: with [d] domains over [n]
    items, slot [s] owns the contiguous range [(s*n/d, (s+1)*n/d)].  Slot
    assignment is static — slot 0 runs on the calling domain, slot [s > 0]
    on worker [s-1] via that worker's private mailbox; there is no work
    stealing or shared queue — and {!fan_out} returns the slot results in
    index order, so any order-sensitive merge (list concatenation, fold,
    min-index selection) reproduces the sequential result exactly.
    [d = 1] {e is} the sequential code path, not a simulation of it.

    Domain count comes from the [FSA_DOMAINS] environment variable
    (default 1; malformed or out-of-range values are rejected with a
    loud [stderr] warning), and can be changed at runtime with
    {!set_domains} / {!with_domains}.

    A fan-out runs the whole range inline (single chunk, calling domain)
    whenever parallelism cannot preserve sequential semantics or simply
    cannot help: [domains () <= 1], [n <= 1], inside another fan-out
    chunk (one level of parallelism only), or while an ambient
    [Fsa_obs.Budget] is installed — budgets are domain-local, so a
    fanned-out budgeted run would silently stop enforcing its limits.

    Telemetry: when the caller has a metric registry installed, each
    worker gets a fresh scratch registry for the batch; after the join
    the scratches are merged into the caller's registry in slot order
    (see [Fsa_obs.Registry.merge_into]).  Because chunking is static,
    merged counters equal the sequential run's counters exactly — the
    exceptions are the pool's own [pool.*] metrics (wall-clock derived:
    per-slot busy ns, busy skew, merge time, fan-out/inline counters,
    dropped-event counts), which exist only to describe the parallel
    execution itself.

    When the caller has a trace sink, each worker gets a bounded
    in-memory buffer sink; buffered events are stamped with the worker's
    slot id ([Fsa_obs.Slot]) and replayed into the caller's sink after
    the join, in slot order, with their original timestamps.

    See DESIGN.md §14 for the full domain-safety contract and §15 for
    the multicore observability contract. *)

val default_domains : int
(** The domain count parsed from [FSA_DOMAINS] at startup (1 if unset
    or invalid). *)

val parse_domains : string -> (int, string) result
(** Validate an [FSA_DOMAINS]-style value: an integer in [\[1, 512\]].
    Exposed for tests and CLI front-ends. *)

val domains : unit -> int
(** The current requested domain count (process-wide). *)

val set_domains : int -> unit
(** Set the requested domain count.
    @raise Invalid_argument outside [\[1, 512\]]. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** Run [f] with the domain count set to [n], restoring the previous
    value afterwards (also on exceptions). *)

val fan_out : n:int -> chunk:(slot:int -> lo:int -> hi:int -> 'a) -> 'a array
(** [fan_out ~n ~chunk] partitions the index range [0..n-1] into at most
    [domains ()] contiguous chunks and evaluates
    [chunk ~slot ~lo ~hi] for each, slot 0 on the calling domain and the
    rest on pool workers.  Returns the chunk results in slot order.
    Returns [[||]] when [n <= 0].  [chunk] must not depend on any state
    mutated by other slots.

    If any chunk raises, the exception from the {e lowest} slot is
    re-raised on the caller (with its backtrace) after all slots finish —
    deterministic regardless of which domain faulted first. *)

val stop : unit -> unit
(** Join all pool workers.  Called automatically [at_exit]; exposed for
    tests.  The pool respawns workers lazily on the next fan-out. *)
