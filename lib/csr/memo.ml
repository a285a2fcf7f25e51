(** The solvers' memo of one instance: what {!Cmatch} and {!Bound} derive
    from its σ and fragments alone.  {!Instance.make} and
    {!Instance.with_sigma} start it empty, it fills on first use, and the
    GC frees it with its instance.

    Any domain may read and fill it.  Every slot is an [Atomic] that only
    ever receives a finished value, so a domain that reads a slot sees all
    of that value, and two domains that race on a slot build equal values,
    one of which is kept. *)

type site_table = { host_len : int; fwd : float array; rev : float array }
(** {!Cmatch}'s unit: MS of every site [lo, hi] of one host fragment
    against one full fragment, at [lo · host_len + hi], per orientation. *)

type frag_summary = {
  regions : Fsa_util.Bitset.t;  (** region ids occurring in the fragment *)
  best_vs : float array Atomic.t;
      (** index r on the {e other} species' region ids, value = best
          clipped σ against any region of this fragment; [[||]] until first
          use *)
}

type summary = {
  stride : int;  (** 1 + max region id over σ and both fragment sets *)
  pair_max : float array;
      (** (h_region · stride + m_region) ↦ max(0, σ) over both orientation
          classes *)
  max_sigma : float;
  h_frags : frag_summary array;
  m_frags : frag_summary array;
  h_full_cols : float array Atomic.t array;
      (** {!Bound.host_column} with an H fragment full: one column per host
          M fragment, indexed by the H fragment; [[||]] until first use *)
  m_full_cols : float array Atomic.t array;  (** the same with an M fragment full *)
}
(** {!Bound}'s summary, built whole on first use. *)

type t = {
  h_full_tables : site_table option array Atomic.t array;
      (** one column per host M fragment, indexed by the full H fragment;
          [[||]] until its first table.  A new table goes into a copy of
          the column, so a published column is never written. *)
  m_full_tables : site_table option array Atomic.t array;
      (** the same per host H fragment, with an M fragment full *)
  summary : summary option Atomic.t;
}

let columns n = Array.init n (fun _ -> Atomic.make [||])

let create ~h ~m =
  { h_full_tables = columns m; m_full_tables = columns h; summary = Atomic.make None }

(* [build ()] goes into the slot unless a racing domain's value got there
   first; returns the slot's value. *)
let fill cell ~empty build =
  ignore (Atomic.compare_and_set cell empty (build ()));
  Atomic.get cell
