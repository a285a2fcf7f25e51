(** Weight-bounded LRU cache.

    Entries carry a caller-defined integer weight (e.g. table cells); when
    the total weight exceeds the budget, least-recently-used entries are
    evicted one at a time until it fits again.  Unlike a whole-cache reset,
    eviction never discards the working set of the computation currently
    running: recently touched entries survive, and the entry being inserted
    is never evicted by its own insertion (an oversized entry is kept until
    the next insertion displaces it).

    Not thread-safe, and deliberately not shareable across domains: every
    cache is owned by the domain that created it, and {e any} operation
    from another domain — including [find], which rewires the intrusive
    recency list — raises {!Cross_domain_use} instead of silently
    corrupting the structure.  The solver caches ([Fsa_csr.Cmatch],
    [Fsa_csr.Bound]) are module-level, so they belong to the domain that
    loads them, and a solve started from any other domain fails with this
    exception. *)

type ('k, 'v) t

exception Cross_domain_use of { owner : int; caller : int }
(** Raised by every operation invoked from a domain other than the cache's
    creator.  [owner]/[caller] are [Domain.id]s. *)

val create :
  ?budget:int ->
  ?on_evict:('k -> 'v -> unit) ->
  weight:('v -> int) ->
  unit ->
  ('k, 'v) t
(** [budget] defaults to unbounded ([max_int]).  [on_evict] fires only for
    budget evictions, not for {!remove}, {!filter_out}, {!clear}, or
    replacement of an existing key by {!add}. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used.  A hit on the current
    most-recently-used entry is answered from the list head, without
    hashing the key. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not promote. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts as most-recently-used (replacing any entry with the same key),
    then evicts LRU entries while over budget. *)

val remove : ('k, 'v) t -> 'k -> unit

val filter_out : ('k, 'v) t -> ('k -> bool) -> unit
(** Drops every entry whose key satisfies the predicate (per-instance
    invalidation). *)

val clear : ('k, 'v) t -> unit

val set_budget : ('k, 'v) t -> int -> unit
(** Also trims immediately; a budget of 0 keeps at most the next inserted
    entry. *)

val budget : ('k, 'v) t -> int
val total_weight : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Running count of budget evictions since creation. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** MRU-first order. *)
