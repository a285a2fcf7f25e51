open Fsa_seq

type shape = {
  side : Species.t;
  a : int;
  a_site : Site.t;
  a_fill : bool;
  b : int;
  b_site : Site.t;
  b_fill : bool;
  break : bool;
  mutable stamp : int;  (** the base (a [t.round]) [rest] describes; -1: none *)
  mutable rest : float;
      (** bound − base score − gain on that base; a lower bound on it when
          not [complete] (its sum stopped at a cutoff) *)
  mutable complete : bool;
}

let shape ~side ~a ~a_site ~a_fill ~b ~b_site ~b_fill ~break =
  {
    side;
    a;
    a_site;
    a_fill;
    b;
    b_site;
    b_fill;
    break;
    stamp = -1;
    rest = 0.0;
    complete = false;
  }

let pruned_counter = Fsa_obs.Metric.Counter.make "improve.pruned"
let idx = function Species.H -> 0 | Species.M -> 1

(* Per-side arrays are indexed by [idx side]. *)
type t = {
  inst : Instance.t;
  lens : int array array;  (** fragment lengths *)
  ids : int array array array;  (** region ids of each fragment's symbols *)
  mutable base : Solution.t option;  (** the solution [contrib] describes *)
  mutable round : int;  (** bumped whenever [base] changes *)
  contrib : float array array;  (** Cb of every fragment in [base] *)
  cu : float array array;
      (** [contrib] with the current attempt's touched matches taken off;
          equal to [contrib] between calls *)
  zhost : int array array;  (** the current attempt's refill zones: host ... *)
  zsite : Site.t array array;  (** ... and site ... *)
  nzones : int array;  (** ... the first [nzones] entries of each side *)
  zone_cols : float array array;  (** the current zones' host columns *)
}

let create inst =
  let per_side f = [| f Species.H; f Species.M |] in
  let count = Instance.fragment_count inst in
  let zeros side = Array.make (count side) 0.0 in
  let frags = per_side (Instance.fragments inst) in
  let lens = Array.map (Array.map Fragment.length) frags in
  (* A match in either prepared fragment's bucket records at most one zone
     a side, a bucket holds at most its fragment's length of matches (their
     sites on it are disjoint), and a side has at most one leftover zone. *)
  let longest = Array.fold_left (Array.fold_left max) 0 lens in
  let zone_room = (2 * longest) + 2 in
  {
    inst;
    lens;
    ids =
      Array.map
        (Array.map (fun f -> Array.map Symbol.id (Fragment.symbols f)))
        frags;
    base = None;
    round = 0;
    contrib = per_side zeros;
    cu = per_side zeros;
    zhost = per_side (fun _ -> Array.make zone_room 0);
    zsite = per_side (fun _ -> Array.make zone_room (Site.make 0 0));
    nzones = [| 0; 0 |];
    zone_cols = Array.make zone_room [||];
  }

(* A scan applies every attempt to the same base, so contributions are
   read once per round. *)
let sync t sol =
  match t.base with
  | Some s when s == sol -> ()
  | Some _ | None ->
      List.iter
        (fun side ->
          let c = t.contrib.(idx side) in
          for frag = 0 to Array.length c - 1 do
            c.(frag) <- Solution.contribution sol side frag
          done;
          Array.blit c 0 t.cu.(idx side) 0 (Array.length c))
        [ Species.H; Species.M ];
      t.base <- Some sol;
      t.round <- t.round + 1

(* Records [site] on [frag] as a zone the attempt's fills may use. *)
let add_zone t side frag (site : Site.t) =
  let i = idx side in
  let n = t.nzones.(i) in
  t.zhost.(i).(n) <- frag;
  t.zsite.(i).(n) <- site;
  t.nzones.(i) <- n + 1

let is_full t side frag (s : Site.t) = s.Site.lo = 0 && s.Site.hi = t.lens.(idx side).(frag) - 1

(* What preparing [container] on one end does to a match whose site there
   is [s]: 0 leaves it alone, 1 may restrict it (a restriction never
   raises a score, and may still remove a border match), 2 removes it. *)
let status ~break ~border ~full (container : Site.t) (s : Site.t) =
  if break && border then 2
  else if s.Site.hi < container.Site.lo || container.Site.hi < s.Site.lo then 0
  else if full || (container.Site.lo <= s.Site.lo && s.Site.hi <= container.Site.hi) then 2
  else 1

(* Walks the bucket of a prepared fragment [x] on side [xs], whose
   container is [xc]; the other prepared fragment is [y], with container
   [yc].  Returns [removed] plus the score the bucket's matches lose
   outright, takes every touched match off its partner's [cu], and records
   each site the attempt may free as a refill zone: the touched match's
   site on the host it frees.  The walk of [a]'s bucket ([joint]) judges a
   match joining [a] and [b] by both containers; the walk of [b]'s skips
   it. *)
let rec walk t ~break ~xs ~x ~xc ~y ~yc ~joint removed = function
  | [] -> removed
  | (m : Cmatch.t) :: rest ->
      let ys = Species.other xs in
      let p = Cmatch.frag_of m ys in
      let removed =
        if p = y && not joint then removed
        else begin
          let s_x = Cmatch.site_of m xs and s_p = Cmatch.site_of m ys in
          let x_full = is_full t xs x s_x and p_full = is_full t ys p s_p in
          let border = (not x_full) && not p_full in
          let st = status ~break ~border ~full:x_full xc s_x in
          let st =
            if p = y then max st (status ~break ~border ~full:p_full yc s_p) else st
          in
          if st = 0 then removed
          else begin
            let cu = t.cu.(idx ys) in
            if p <> y then cu.(p) <- cu.(p) -. m.Cmatch.score;
            if border || x_full then add_zone t ys p s_p;
            if p = y && (border || p_full) then add_zone t xs x s_x;
            if st = 2 then removed +. m.Cmatch.score else removed
          end
        end
      in
      walk t ~break ~xs ~x ~xc ~y ~yc ~joint removed rest

(* Puts [cu] back to [contrib] for the partners of [a]'s or [b]'s matches
   on [side]. *)
let rec restore t side skip = function
  | [] -> ()
  | m :: rest ->
      let p = Cmatch.frag_of m side in
      if p <> skip then t.cu.(idx side).(p) <- t.contrib.(idx side).(p);
      restore t side skip rest

(* What fragment [j] offers the symbols of a zone, summed forward and
   backward: a plug's DP adds its matched σ values in one of those orders,
   and each term is at most the zone symbol's offer. *)
let zone_sum offer ids (zone : Site.t) =
  let fwd = ref 0.0 and bwd = ref 0.0 in
  for i = zone.Site.lo to zone.Site.hi do
    fwd := !fwd +. offer.(ids.(i))
  done;
  for i = zone.Site.hi downto zone.Site.lo do
    bwd := !bwd +. offer.(ids.(i))
  done;
  Float.max !fwd !bwd

(* Adds, for each fragment the refills on [host_side]'s zones may plug (all
   of the other side but [excluded]), max(0, best − ½·cu), where best is
   the largest over the zones of min(host column entry, zone sum); stops
   once [acc] reaches [cutoff].  A zone sum is taken only where the
   column entry could raise best. *)
let refill_term t host_side ~excluded ~cutoff acc =
  let ih = idx host_side and job_side = Species.other host_side in
  let n = t.nzones.(ih) in
  if n = 0 then acc
  else begin
    let cols = t.zone_cols and hosts = t.zhost.(ih) and sites = t.zsite.(ih) in
    let ids = t.ids.(ih) and cu = t.cu.(idx job_side) in
    for k = 0 to n - 1 do
      cols.(k) <- Bound.host_column t.inst ~full_side:job_side ~other_frag:hosts.(k)
    done;
    let acc = ref acc and j = ref 0 in
    while !j < Array.length cu && !acc < cutoff do
      let jj = !j in
      if jj <> excluded then begin
        let half = 0.5 *. cu.(jj) in
        let best = ref (Float.max 0.0 half) in
        for k = 0 to n - 1 do
          let c = cols.(k).(jj) in
          if c > !best then begin
            let z = zone_sum (Bound.offers t.inst job_side jj) ids.(hosts.(k)) sites.(k) in
            let v = Float.min c z in
            if v > !best then best := v
          end
        done;
        let term = !best -. half in
        if term > 0.0 then acc := !acc +. term
      end;
      incr j
    done;
    !acc
  end

(* bound − base score − gain, summed until [gain] plus it reaches
   [cutoff].  A shape shared by several attempts (I1's full container
   across targets) keeps its sum for the base, and reuses it whenever it
   decides the comparison. *)
let rest_bound t sh ~gain ~cutoff sol =
  sync t sol;
  if sh.stamp = t.round && (sh.complete || gain +. sh.rest >= cutoff) then sh.rest
  else begin
    let sa = sh.side and sb = Species.other sh.side in
    t.nzones.(0) <- 0;
    t.nzones.(1) <- 0;
    if sh.a_fill then add_zone t sa sh.a sh.a_site;
    if sh.b_fill then add_zone t sb sh.b sh.b_site;
    let on_a_bucket = Solution.matches_on sol sa sh.a
    and on_b_bucket = Solution.matches_on sol sb sh.b in
    let removed =
      walk t ~break:sh.break ~xs:sa ~x:sh.a ~xc:sh.a_site ~y:sh.b ~yc:sh.b_site
        ~joint:true 0.0 on_a_bucket
    in
    let removed =
      walk t ~break:sh.break ~xs:sb ~x:sh.b ~xc:sh.b_site ~y:sh.a ~yc:sh.a_site
        ~joint:false removed on_b_bucket
    in
    let rest = -.removed in
    let limit = cutoff -. gain in
    let rest =
      if rest >= limit then rest
      else
        refill_term t sa ~excluded:sh.b ~cutoff:limit rest
        |> refill_term t sb ~excluded:sh.a ~cutoff:limit
    in
    restore t sb sh.b on_a_bucket;
    restore t sa sh.a on_b_bucket;
    sh.stamp <- t.round;
    sh.rest <- rest;
    sh.complete <- rest < limit;
    rest
  end

let margin s = 1e-9 *. (1.0 +. Float.abs s)

(* Domain-local, so an oracle observing on one domain leaves solves on
   others alone. *)
let observer : (float -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let observe k f =
  let was = Domain.DLS.get observer in
  Domain.DLS.set observer (Some k);
  Fun.protect ~finally:(fun () -> Domain.DLS.set observer was) f

let refuses t sh ~gain sol =
  match Domain.DLS.get observer with
  | Some k ->
      k (Solution.score sol +. gain +. rest_bound t sh ~gain ~cutoff:infinity sol);
      false
  | None ->
      Bound.enabled ()
      &&
      let m = margin (Solution.score sol) in
      let refused = gain +. rest_bound t sh ~gain ~cutoff:(-.m) sol < -.m in
      if refused then Fsa_obs.Metric.Counter.incr pruned_counter;
      refused
