open Fsa_seq
module Counter = Fsa_obs.Metric.Counter

type t = {
  h_frag : int;
  h_site : Site.t;
  m_frag : int;
  m_site : Site.t;
  m_reversed : bool;
  score : float;
}

type kind = Full_match | Border_match

let site_kind inst side frag site =
  Fragment.site_kind (Instance.fragment inst side frag) site

let classify inst t =
  let hk = site_kind inst Species.H t.h_frag t.h_site in
  let mk = site_kind inst Species.M t.m_frag t.m_site in
  match (hk, mk) with
  | Site.Full, _ | _, Site.Full -> Some Full_match
  | Site.Inner, _ | _, Site.Inner -> None
  | (Site.Prefix | Site.Suffix), (Site.Prefix | Site.Suffix) ->
      (* Opposite shapes are realizable forward; equal shapes reversed. *)
      let equal_shapes = hk = mk in
      if equal_shapes = t.m_reversed then Some Border_match else None

(* The P_score DP of [Region_align.p_score] on the oriented site words,
   with the symbols read in place and σ probed through the table's dense
   view: the same cells in the same order, so the same float, without the
   two word copies and a hashed key per probe.  [Solution.add] runs this
   freshness check on every match it files. *)
let recompute_score inst t =
  let h = Instance.fragment inst Species.H t.h_frag in
  let m = Instance.fragment inst Species.M t.m_frag in
  if t.h_site.Site.hi >= Fragment.length h || t.m_site.Site.hi >= Fragment.length m
  then invalid_arg "Cmatch.recompute_score: site exceeds fragment";
  let d = Scoring.dense inst.Instance.sigma in
  let hlo = t.h_site.Site.lo in
  let score =
    if t.m_reversed then
      let mhi = t.m_site.Site.hi in
      fun i j -> Scoring.dense_get_rev d (Fragment.get h (hlo + i)) (Fragment.get m (mhi - j))
    else
      let mlo = t.m_site.Site.lo in
      fun i j -> Scoring.dense_get d (Fragment.get h (hlo + i)) (Fragment.get m (mlo + j))
  in
  Fsa_align.Pairwise.max_weight_score ~score ~la:(Site.length t.h_site)
    ~lb:(Site.length t.m_site)

(* MS values depend only on the instance's σ and the site geometry, never
   on the current solution, so they are memoized on the instance
   ({!Memo}).  The local-search algorithms evaluate *every* site of the
   same (full fragment, host fragment) pair, so the memo unit is a
   whole-pair site table: MS for all (lo, hi) windows of the host, built by
   the all-windows column kernel in O(full·host²) — amortized O(1) per
   site — instead of an O(full·site) alignment per probe. *)

type site_table = Memo.site_table

let builds_counter = Counter.make "cmatch.table_builds"
let hits_counter = Counter.make "cmatch.cache_hits"

let build_table inst ~full_side idx ~other_frag =
  let other_side = Species.other full_side in
  let full_word = Fragment.symbols (Instance.fragment inst full_side idx) in
  let host_word = Fragment.symbols (Instance.fragment inst other_side other_frag) in
  let get = Scoring.dense_get (Scoring.dense inst.Instance.sigma) in
  let fwd, rev =
    match full_side with
    | Species.H ->
        (* σ takes (h, m): the full H word is the row word, host M sites
           are the windows. *)
        ( Fsa_align.Region_align.ms_windows_fwd ~get full_word host_word,
          Fsa_align.Region_align.ms_windows_rev ~get full_word host_word )
    | Species.M ->
        (* Full M word as rows is the *transpose* of the per-site DP
           (bit-identical: every cell is the same max of the same
           neighbors), with σ's arguments swapped back into (h, m)
           order.  The reversed orientation reverses the full M word —
           a fixed row word — so both tables use the forward kernel. *)
        let get_hm m_sym h_sym = get h_sym m_sym in
        ( Fsa_align.Region_align.ms_windows_fwd ~get:get_hm full_word host_word,
          Fsa_align.Region_align.ms_windows_fwd ~get:get_hm
            (Fsa_align.Region_align.reverse_word full_word)
            host_word )
  in
  Counter.incr builds_counter;
  { Memo.host_len = Array.length host_word; fwd; rev }

(* A new table goes into a copy of its column; the retry keeps a table a
   racing domain added to the column meanwhile. *)
let rec publish column ~len idx table =
  let col = Atomic.get column in
  let col' = if Array.length col = 0 then Array.make len None else Array.copy col in
  col'.(idx) <- Some table;
  if not (Atomic.compare_and_set column col col') then publish column ~len idx table

let full_table inst ~full_side idx ~other_frag =
  let memo = inst.Instance.memo in
  let column =
    (match full_side with
    | Species.H -> memo.Memo.h_full_tables
    | Species.M -> memo.Memo.m_full_tables).(other_frag)
  in
  let col = Atomic.get column in
  match if Array.length col = 0 then None else col.(idx) with
  | Some t ->
      Counter.incr hits_counter;
      t
  | None ->
      let t = build_table inst ~full_side idx ~other_frag in
      publish column ~len:(Instance.fragment_count inst full_side) idx t;
      t

let table_ms (t : site_table) ~lo ~hi =
  let i = (lo * t.host_len) + hi in
  let f = t.fwd.(i) and r = t.rev.(i) in
  if r > f then (r, true) else (f, false)

let full inst ~full_side idx ~other_frag ~other_site =
  let score, m_reversed =
    table_ms
      (full_table inst ~full_side idx ~other_frag)
      ~lo:other_site.Site.lo ~hi:other_site.Site.hi
  in
  let full_site =
    Fragment.full_site (Instance.fragment inst full_side idx)
  in
  match full_side with
  | Species.H ->
      {
        h_frag = idx;
        h_site = full_site;
        m_frag = other_frag;
        m_site = other_site;
        m_reversed;
        score;
      }
  | Species.M ->
      {
        h_frag = other_frag;
        h_site = other_site;
        m_frag = idx;
        m_site = full_site;
        m_reversed;
        score;
      }

let border inst ~h_frag ~h_site ~m_frag ~m_site =
  let hk = site_kind inst Species.H h_frag h_site in
  let mk = site_kind inst Species.M m_frag m_site in
  match (hk, mk) with
  | (Site.Prefix | Site.Suffix), (Site.Prefix | Site.Suffix) ->
      let m_reversed = hk = mk in
      let draft = { h_frag; h_site; m_frag; m_site; m_reversed; score = 0.0 } in
      Some { draft with score = recompute_score inst draft }
  | _ -> None

let site_of t = function Species.H -> t.h_site | Species.M -> t.m_site
let frag_of t = function Species.H -> t.h_frag | Species.M -> t.m_frag

let equal a b =
  a.h_frag = b.h_frag && a.m_frag = b.m_frag
  && Site.equal a.h_site b.h_site
  && Site.equal a.m_site b.m_site
  && a.m_reversed = b.m_reversed

let pp inst ppf t =
  Format.fprintf ppf "(%s%a ~ %s%a%s : %.2f)"
    (Fragment.name (Instance.fragment inst Species.H t.h_frag))
    Site.pp t.h_site
    (Fragment.name (Instance.fragment inst Species.M t.m_frag))
    Site.pp t.m_site
    (if t.m_reversed then "ᴿ" else "")
    t.score
