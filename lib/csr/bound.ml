open Fsa_seq
module Counter = Fsa_obs.Metric.Counter
module Lru = Fsa_util.Lru
module Bitset = Fsa_util.Bitset

(* Admissible upper bounds on match scores.

   Every MS value a solver probes is a P_score of the full fragment's word
   against some window of the host fragment, in one of the two orientations.
   Any such alignment matches each full-word symbol at most once, pairs it
   with a symbol whose *region id* occurs in the host (reversal flips the
   orientation bit, never the id), and gains at most the best positive σ
   entry of that (h-region, m-region) pair over either relative orientation
   — negative entries are never taken because the DP can always skip.  So

     MS(full, any window, any orientation)
       <= Σ_{x ∈ full} max(0, max_{r ∈ regions(host)} pair_max(x, r))
       and
       <= min(|full|, |host|) · max σ

   and the minimum of the two is what [ms_bound] returns.  Both are
   window-independent, so one O(|full|)-time evaluation covers every site
   of the pair at once.  Border matches align sub-words of the two
   fragments, which only shrinks the sums, so the same bound covers them.

   Pruning sites must use the bound with a *strict* comparison: work is
   skipped only when [bound <= threshold], while every consumer keeps a
   candidate only when its score strictly exceeds the threshold
   (ms > 0, profit > 0, plug.score > 0).  A pruned pair therefore
   contributes exactly nothing in the unpruned run as well — candidate
   lists, their order, tie-breaking, and stats are all unchanged. *)

type frag_summary = {
  regions : Bitset.t;  (** region ids occurring in the fragment *)
  mutable best_vs : float array option;
      (** lazily built: index r on the {e other} species' region ids,
          value = best clipped σ against any region of this fragment *)
}

type summary = {
  stride : int;  (** 1 + max region id over σ and both fragment sets *)
  pair_max : float array;
      (** (h_region · stride + m_region) ↦ max(0, σ) over both orientation
          classes *)
  max_sigma : float;
  h_frags : frag_summary array;
  m_frags : frag_summary array;
  h_full_cols : float array array;
      (** memoized [ms_bound] with an H fragment full: one column per host
          M fragment, indexed by the H fragment; [[||]] until first use *)
  m_full_cols : float array array;  (** the same with an M fragment full *)
}

let summary_weight s = (s.stride * s.stride) + 1

(* Keyed by instance uid, owned by the domain that loads this module, like
   Cmatch's caches. *)
let summaries : (int, summary) Lru.t =
  Lru.create ~budget:4_000_000 ~weight:summary_weight ()

let frag_summary stride f =
  let regions = Bitset.create stride in
  Array.iter (fun sym -> Bitset.set regions (Symbol.id sym)) (Fragment.symbols f);
  { regions; best_vs = None }

let build_summary inst =
  let max_id = ref (-1) in
  let scan_side side =
    Array.iter
      (fun f ->
        Array.iter
          (fun sym -> max_id := max !max_id (Symbol.id sym))
          (Fragment.symbols f))
      (Instance.fragments inst side)
  in
  scan_side Species.H;
  scan_side Species.M;
  let entries = Scoring.entries inst.Instance.sigma in
  List.iter (fun (h, m, _, _) -> max_id := max !max_id (max h m)) entries;
  let stride = !max_id + 1 in
  let pair_max = Array.make (max 1 (stride * stride)) 0.0 in
  let max_sigma = ref 0.0 in
  List.iter
    (fun (h, m, _, v) ->
      if v > 0.0 then begin
        let i = (h * stride) + m in
        if v > pair_max.(i) then pair_max.(i) <- v;
        if v > !max_sigma then max_sigma := v
      end)
    entries;
  {
    stride;
    pair_max;
    max_sigma = !max_sigma;
    h_frags = Array.map (frag_summary stride) (Instance.fragments inst Species.H);
    m_frags = Array.map (frag_summary stride) (Instance.fragments inst Species.M);
    h_full_cols = Array.make (Instance.fragment_count inst Species.M) [||];
    m_full_cols = Array.make (Instance.fragment_count inst Species.H) [||];
  }

let summary inst =
  match Lru.find summaries inst.Instance.uid with
  | Some s -> s
  | None ->
      let s = build_summary inst in
      Lru.add summaries inst.Instance.uid s;
      s

let frag_of_summary s side idx =
  match side with Species.H -> s.h_frags.(idx) | Species.M -> s.m_frags.(idx)

(* best_vs for a host fragment on [host_side]: indexed by the other side's
   region id, the best clipped σ this fragment can offer it.  σ's argument
   order is (h, m), so the lookup direction depends on the side. *)
let best_vs s host_side fs =
  match fs.best_vs with
  | Some a -> a
  | None ->
      let a = Array.make (max 1 s.stride) 0.0 in
      Bitset.iter
        (fun host_r ->
          for other_r = 0 to s.stride - 1 do
            let v =
              match host_side with
              | Species.M -> s.pair_max.((other_r * s.stride) + host_r)
              | Species.H -> s.pair_max.((host_r * s.stride) + other_r)
            in
            if v > a.(other_r) then a.(other_r) <- v
          done)
        fs.regions;
      fs.best_vs <- Some a;
      a

let compute_bound inst s ~full_side idx ~other_frag =
  let other_side = Species.other full_side in
  let full = Instance.fragment inst full_side idx in
  let host = Instance.fragment inst other_side other_frag in
  let host_best = best_vs s other_side (frag_of_summary s other_side other_frag) in
  (* Each DP path accumulates its matched σ values in the row word's order,
     and the reversed-orientation M-side table uses the *reversed* full word
     as its row word.  fl-addition is monotone but not order-stable, so a
     single directional sum can undercut the other direction's DP by an
     ulp; summing both directions and taking the max dominates every path
     of either orientation. *)
  let syms = Fragment.symbols full in
  let n = Array.length syms in
  let sum_f = ref 0.0 and sum_r = ref 0.0 in
  for i = 0 to n - 1 do
    let v = host_best.(Symbol.id syms.(i)) in
    if v > 0.0 then sum_f := !sum_f +. v
  done;
  for i = n - 1 downto 0 do
    let v = host_best.(Symbol.id syms.(i)) in
    if v > 0.0 then sum_r := !sum_r +. v
  done;
  let sum = ref (Float.max !sum_f !sum_r) in
  (* The cap must dominate every DP sum of at most k terms each <= max σ.
     Computed by repeated addition (not k *. max): float addition is
     monotone, so the fl-sum of k copies of max σ dominates the fl-sum of
     any k smaller terms, whereas the rounded product need not. *)
  let k = min (Fragment.length full) (Fragment.length host) in
  let cap = ref 0.0 in
  for _ = 1 to k do
    cap := !cap +. s.max_sigma
  done;
  Float.min !sum !cap

(* Every bound against one host, filled on the column's first use: the
   callers sweep a host's jobs together, so one fill serves the sweep. *)
let host_column inst ~full_side ~other_frag =
  let s = summary inst in
  let cols =
    match full_side with Species.H -> s.h_full_cols | Species.M -> s.m_full_cols
  in
  let col = cols.(other_frag) in
  if Array.length col > 0 then col
  else begin
    let col =
      Array.init (Instance.fragment_count inst full_side) (fun idx ->
          compute_bound inst s ~full_side idx ~other_frag)
    in
    cols.(other_frag) <- col;
    col
  end

let ms_bound inst ~full_side idx ~other_frag =
  (host_column inst ~full_side ~other_frag).(idx)

let offers inst side frag =
  let s = summary inst in
  best_vs s side (frag_of_summary s side frag)

(* ------------------------------------------------------------------ *)
(* Pruning switch and counters *)

let parse_no_prune raw =
  match String.trim raw with
  | "1" -> Ok true
  | "0" -> Ok false
  | _ -> Error (Printf.sprintf "expected 0 or 1, got %S" raw)

(* A malformed value warns and keeps pruning on, as FSA_TABLE_BUDGET and
   FSA_DOMAINS keep their defaults: reading any non-empty value as "off"
   would let FSA_NO_PRUNE=0 disable every pruning layer. *)
let enabled_cell =
  ref
    (match Sys.getenv_opt "FSA_NO_PRUNE" with
    | None -> true
    | Some raw -> (
        match parse_no_prune raw with
        | Ok no_prune -> not no_prune
        | Error msg ->
            Printf.eprintf
              "fsa: warning: ignoring FSA_NO_PRUNE (%s); pruning stays on\n%!" msg;
            true))

let enabled () = !enabled_cell
let set_enabled b = enabled_cell := b

let pruned_counter = Counter.make "cmatch.pruned"
let checks_counter = Counter.make "cmatch.bound_checks"

let pair_viable inst ~full_side idx ~other_frag ~threshold =
  if not !enabled_cell then true
  else begin
    Counter.incr checks_counter;
    if ms_bound inst ~full_side idx ~other_frag > threshold then true
    else begin
      Counter.incr pruned_counter;
      false
    end
  end

let count_checks ~checks ~pruned =
  if checks > 0 then Counter.incr ~by:checks checks_counter;
  if pruned > 0 then Counter.incr ~by:pruned pruned_counter

(* A border match aligns a sub-word of h against an oriented sub-word of m;
   the pair bound with the H fragment in the row role dominates it. *)
let border_viable inst ~h_frag ~m_frag ~threshold =
  pair_viable inst ~full_side:Species.H h_frag ~other_frag:m_frag ~threshold

let invalidate inst = Lru.remove summaries inst.Instance.uid
let clear_cache () = Lru.clear summaries
