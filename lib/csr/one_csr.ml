open Fsa_seq

type algorithm = Tpa | Exact_isp | Greedy_isp

(* Global line coordinates: fragment [i] of the sites side occupies
   [offset.(i), offset.(i) + len_i - 1]. *)
let offsets inst side =
  let n = Instance.fragment_count inst side in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + Fragment.length (Instance.fragment inst side i)
  done;
  off

let isp_candidate_counter = Fsa_obs.Metric.Counter.make "one_csr.isp_candidates"

let isp_of inst ~jobs_side =
  Fsa_obs.Span.with_ ~name:"one_csr.isp_build" @@ fun () ->
  let sites_side = Species.other jobs_side in
  let off = offsets inst sites_side in
  let jobs = Instance.fragment_count inst jobs_side in
  let targets = Instance.fragment_count inst sites_side in
  let cands = ref [] in
  for job = 0 to jobs - 1 do
    for target = 0 to targets - 1 do
      Fsa_obs.Budget.check ();
      (* Candidates need ms > 0, so a pair whose admissible bound is <= 0
         contributes nothing — skip its whole table. *)
      if
        Bound.pair_viable inst ~full_side:jobs_side job ~other_frag:target
          ~threshold:0.0
      then begin
        let len = Fragment.length (Instance.fragment inst sites_side target) in
        (* All sites of this (job, target) pair share one MS precompute. *)
        let tbl =
          Cmatch.full_table inst ~full_side:jobs_side job ~other_frag:target
        in
        List.iter
          (fun (site : Site.t) ->
            Fsa_obs.Budget.check ();
            let ms, _rev =
              Cmatch.table_ms tbl ~lo:site.Site.lo ~hi:site.Site.hi
            in
            if ms > 0.0 then
              cands :=
                {
                  Fsa_intervals.Isp.job;
                  interval =
                    Fsa_intervals.Interval.make
                      (off.(target) + site.Site.lo)
                      (off.(target) + site.Site.hi);
                  profit = ms;
                }
                :: !cands)
          (Site.all_subsites len)
      end
    done
  done;
  Fsa_obs.Metric.Counter.add isp_candidate_counter (List.length !cands);
  Fsa_intervals.Isp.create ~jobs !cands

let solve_side ?(algorithm = Tpa) inst ~jobs_side =
  Fsa_obs.Span.with_
    ~name:
      (Printf.sprintf "one_csr.solve_side.%s" (Species.to_string jobs_side))
  @@ fun () ->
  let sites_side = Species.other jobs_side in
  let off = offsets inst sites_side in
  let isp = isp_of inst ~jobs_side in
  let _, selection =
    match algorithm with
    | Tpa -> Fsa_intervals.Isp.tpa isp
    | Exact_isp -> Fsa_intervals.Isp.exact_or_tpa isp
    | Greedy_isp -> Fsa_intervals.Isp.greedy isp
  in
  (* Map each selected candidate's line interval back to its fragment. *)
  let frag_of_pos p =
    let rec find i = if off.(i + 1) > p then i else find (i + 1) in
    find 0
  in
  let matches =
    List.map
      (fun (c : Fsa_intervals.Isp.candidate) ->
        let target = frag_of_pos c.interval.Fsa_intervals.Interval.lo in
        let site =
          Site.make
            (c.interval.Fsa_intervals.Interval.lo - off.(target))
            (c.interval.Fsa_intervals.Interval.hi - off.(target))
        in
        Cmatch.full inst ~full_side:jobs_side c.job ~other_frag:target
          ~other_site:site)
      selection
  in
  match Solution.of_matches inst matches with
  | Ok sol -> sol
  | Error e -> invalid_arg ("One_csr.solve_side: inconsistent output: " ^ e)

let four_approx ?algorithm inst =
  Fsa_obs.Span.with_ ~name:"one_csr.four_approx" @@ fun () ->
  let a = solve_side ?algorithm inst ~jobs_side:Species.H in
  let b = solve_side ?algorithm inst ~jobs_side:Species.M in
  if Solution.score a >= Solution.score b then a else b

let four_approx_budgeted ?algorithm budget inst =
  Fsa_obs.Span.with_ ~name:"one_csr.four_approx" @@ fun () ->
  (* Each solve_side run is all-or-nothing (the ISP mapping at its tail has
     no checkpoints), so the partial is the best fully-completed side —
     empty when the first side trips. *)
  let best = ref None in
  Fsa_obs.Budget.run budget
    ~partial:(fun () ->
      match !best with Some s -> s | None -> Solution.empty inst)
    (fun () ->
      let a = solve_side ?algorithm inst ~jobs_side:Species.H in
      best := Some a;
      let b = solve_side ?algorithm inst ~jobs_side:Species.M in
      let w = if Solution.score a >= Solution.score b then a else b in
      best := Some w;
      w)
