open Fsa_seq

type t = {
  anchors : Seed.anchor array;
  forward : bool;
  score : float;
  t_lo : int;
  t_hi : int;
  q_lo : int;
  q_hi : int;
}

let chains_counter = Fsa_obs.Metric.Counter.make "chain.chains_built"
let chained_counter = Fsa_obs.Metric.Counter.make "chain.anchors_chained"
let pairs_counter = Fsa_obs.Metric.Counter.make "chain.dp_pairs"

(* Strand-uniform query keys: for reverse anchors the query runs backwards
   along the target, so negating the forward-query interval makes
   colinearity "both keys strictly increasing" on either strand. *)
let qk_lo a = if a.Seed.forward then a.Seed.q_lo else -a.Seed.q_hi
let qk_hi a = if a.Seed.forward then a.Seed.q_hi else -a.Seed.q_lo

(* An anchor links to a predecessor among the last [lookback] sorted
   anchors; a link costs [gap_scale] per gap or overlap base; chains
   scoring under [min_score] are dropped. *)
let lookback = 64
let gap_scale = 0.5
let min_score = 0.0

let chain_one_strand ~max_gap anchors =
  let arr = Array.of_list anchors in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    Array.sort
      (fun a b ->
        if a.Seed.t_lo <> b.Seed.t_lo then Int.compare a.Seed.t_lo b.Seed.t_lo
        else Int.compare (qk_lo a) (qk_lo b))
      arr;
    let f = Array.make n 0.0 in
    let back = Array.make n (-1) in
    let pairs = ref 0 in
    for i = 0 to n - 1 do
      let a = arr.(i) in
      let best = ref 0.0 and best_j = ref (-1) in
      let j0 = max 0 (i - lookback) in
      for j = j0 to i - 1 do
        incr pairs;
        let b = arr.(j) in
        let dt = a.Seed.t_lo - b.Seed.t_hi - 1 in
        let dq = qk_lo a - qk_hi b - 1 in
        (* Proper progress in both dimensions; bounded gaps.  Negative
           [dt]/[dq] are overlaps — allowed, charged like gaps, trimmed
           exactly during stitching. *)
        if
          b.Seed.t_lo < a.Seed.t_lo
          && b.Seed.t_hi < a.Seed.t_hi
          && qk_lo b < qk_lo a
          && qk_hi b < qk_hi a
          && dt <= max_gap
          && dq <= max_gap
        then begin
          let cost = gap_scale *. float_of_int (abs dt + abs dq) in
          let cand = f.(j) -. cost in
          if cand > !best then begin
            best := cand;
            best_j := j
          end
        end
      done;
      f.(i) <- arr.(i).Seed.score +. !best;
      back.(i) <- !best_j
    done;
    Fsa_obs.Metric.Counter.add pairs_counter !pairs;
    (* Peel chains best-end first; each anchor joins exactly one chain, and
       a walk stops where it meets an already claimed anchor. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        if f.(i) <> f.(j) then Float.compare f.(j) f.(i) else Int.compare i j)
      order;
    let used = Array.make n false in
    let chains = ref [] in
    Array.iter
      (fun e ->
        if not used.(e) then begin
          let members = ref [] in
          let i = ref e in
          while !i >= 0 && not used.(!i) do
            used.(!i) <- true;
            members := arr.(!i) :: !members;
            i := back.(!i)
          done;
          let members = Array.of_list !members in
          let t_lo = ref max_int and t_hi = ref min_int in
          let q_lo = ref max_int and q_hi = ref min_int in
          Array.iter
            (fun a ->
              t_lo := min !t_lo a.Seed.t_lo;
              t_hi := max !t_hi a.Seed.t_hi;
              q_lo := min !q_lo a.Seed.q_lo;
              q_hi := max !q_hi a.Seed.q_hi)
            members;
          chains :=
            {
              anchors = members;
              forward = members.(0).Seed.forward;
              score = f.(e);
              t_lo = !t_lo;
              t_hi = !t_hi;
              q_lo = !q_lo;
              q_hi = !q_hi;
            }
            :: !chains
        end)
      order;
    !chains
  end

let chains ?(max_gap = 300) anchors =
  Fsa_obs.Span.with_ ~name:"chain.build" @@ fun () ->
  let fwd, rev = List.partition (fun a -> a.Seed.forward) anchors in
  let all = chain_one_strand ~max_gap fwd @ chain_one_strand ~max_gap rev in
  let kept = List.filter (fun c -> c.score >= min_score) all in
  Fsa_obs.Metric.Counter.add chains_counter (List.length kept);
  List.iter
    (fun c ->
      Fsa_obs.Metric.Counter.add chained_counter (Array.length c.anchors))
    kept;
  List.sort (fun a b -> Float.compare b.score a.score) kept

type stitched = { chain : t; score : float; widenings : int; fallbacks : int }

let stitch ?band ?band_cap ?(gap_kernel = `Adaptive) ~target ~query c =
  Fsa_obs.Span.with_ ~name:"chain.stitch" @@ fun () ->
  (* Work in strand coordinates: for a reverse chain, against the
     reverse complement of the chain's query span [q_lo, q_hi] only,
     mapping each anchor's forward-query interval by j ↦ q_hi - j.  Every
     anchor is then an increasing diagonal run and stitching is
     strand-agnostic.  (Against the whole reverse complement the map
     would be j ↦ ql - 1 - j: every strand position shifts by the same
     constant, which leaves gaps, overlaps and scores unchanged.) *)
  let q' =
    if c.forward then query
    else Dna.reverse_complement (Dna.sub query ~pos:c.q_lo ~len:(c.q_hi - c.q_lo + 1))
  in
  let conv a =
    if c.forward then (a.Seed.q_lo, a.Seed.q_hi)
    else (c.q_hi - a.Seed.q_hi, c.q_hi - a.Seed.q_lo)
  in
  let pair t q =
    if Dna.get target t = Dna.get q' q then Dna_align.default.match_score
    else Dna_align.default.mismatch
  in
  let score = ref 0.0 and widenings = ref 0 and fallbacks = ref 0 in
  let gap_align gt gq ~t0 ~q0 =
    if gt > 0 || gq > 0 then begin
      let a = Dna.sub target ~pos:t0 ~len:gt and b = Dna.sub q' ~pos:q0 ~len:gq in
      match gap_kernel with
      | `Full -> score := !score +. (Dna_align.global a b).Pairwise.score
      | `Adaptive ->
          let ad = Dna_align.adaptive_global ?band ?band_cap a b in
          widenings := !widenings + ad.Pairwise.widenings;
          if ad.Pairwise.fell_back then incr fallbacks;
          score := !score +. ad.Pairwise.result.Pairwise.score
    end
  in
  let first_q_lo, _ = conv c.anchors.(0) in
  let cur_t = ref c.anchors.(0).Seed.t_lo and cur_q = ref first_q_lo in
  Array.iter
    (fun a ->
      let a_q_lo, a_q_hi = conv a in
      let d = a.Seed.t_lo - a_q_lo in
      (* Entry point on the anchor's diagonal: past any part the previous
         anchor already covered (overlap trimming, exact). *)
      let start_q = max a_q_lo (max !cur_q (!cur_t - d)) in
      if start_q <= a_q_hi then begin
        let start_t = start_q + d in
        gap_align (start_t - !cur_t) (start_q - !cur_q) ~t0:!cur_t ~q0:!cur_q;
        for q = start_q to a_q_hi do
          score := !score +. pair (q + d) q
        done;
        cur_t := a.Seed.t_hi + 1;
        cur_q := a_q_hi + 1
      end)
    c.anchors;
  { chain = c; score = !score; widenings = !widenings; fallbacks = !fallbacks }
