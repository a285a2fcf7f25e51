open Fsa_seq

let subsites_of (s : Site.t) =
  let acc = ref [] in
  for lo = s.Site.lo to s.Site.hi do
    for hi = lo to s.Site.hi do
      acc := Site.make lo hi :: !acc
    done
  done;
  !acc

(* Border-shaped sites of a fragment whose whole extent is currently free. *)
let free_border_sites inst sol side frag =
  let n = Fragment.length (Instance.fragment inst side frag) in
  let free = Solution.free_sites sol side frag in
  let prefixes =
    match List.find_opt (fun (s : Site.t) -> s.Site.lo = 0) free with
    | Some s -> List.init (min s.Site.hi (n - 2) + 1) (fun i -> Site.make 0 i)
    | None -> []
  in
  let suffixes =
    match List.find_opt (fun (s : Site.t) -> s.Site.hi = n - 1) free with
    | Some s ->
        let lo_min = max s.Site.lo 1 in
        List.init (max 0 (n - lo_min)) (fun k -> Site.make (lo_min + k) (n - 1))
    | None -> []
  in
  prefixes @ suffixes

(* Both sweeps prepend, so candidates come out in reverse (fragment,
   fragment) order; the stable sort in [solve_tracked] breaks ties by that
   order. *)
let candidate_matches inst sol =
  let full_candidates side =
    let other = Species.other side in
    let acc = ref [] in
    for f = 0 to Instance.fragment_count inst side - 1 do
      for g = 0 to Instance.fragment_count inst other - 1 do
        if
          Solution.role sol side f = Solution.Unmatched
          (* Candidates need score > 0; skip pairs whose bound is <= 0. *)
          && Bound.pair_viable inst ~full_side:side f ~other_frag:g
               ~threshold:0.0
        then
          List.iter
            (fun free ->
              List.iter
                (fun site ->
                  Fsa_obs.Budget.check ();
                  let m =
                    Cmatch.full inst ~full_side:side f ~other_frag:g
                      ~other_site:site
                  in
                  if m.Cmatch.score > 0.0 then acc := m :: !acc)
                (subsites_of free))
            (Solution.free_sites sol other g)
      done
    done;
    !acc
  in
  let border_candidates () =
    let acc = ref [] in
    for hf = 0 to Instance.fragment_count inst Species.H - 1 do
      let h_sites = free_border_sites inst sol Species.H hf in
      for mf = 0 to Instance.fragment_count inst Species.M - 1 do
        if
          h_sites <> []
          && Bound.border_viable inst ~h_frag:hf ~m_frag:mf ~threshold:0.0
        then begin
          let m_sites = free_border_sites inst sol Species.M mf in
          List.iter
            (fun hs ->
              List.iter
                (fun ms ->
                  Fsa_obs.Budget.check ();
                  match
                    Cmatch.border inst ~h_frag:hf ~h_site:hs ~m_frag:mf
                      ~m_site:ms
                  with
                  | Some m when m.Cmatch.score > 0.0 -> acc := m :: !acc
                  | Some _ | None -> ())
                m_sites)
            h_sites
        end
      done
    done;
    !acc
  in
  full_candidates Species.H @ full_candidates Species.M @ border_candidates ()

let candidate_counter = Fsa_obs.Metric.Counter.make "greedy.candidates"

(* [track] publishes every committed solution, so a budgeted run can hand
   back the latest one as its partial result. *)
let solve_tracked ~track ~max_steps inst =
  Fsa_obs.Span.with_ ~name:"greedy.solve" @@ fun () ->
  let rec step sol steps =
    if steps = 0 then sol
    else begin
      let cands =
        List.sort
          (fun (a : Cmatch.t) b -> compare b.Cmatch.score a.Cmatch.score)
          (candidate_matches inst sol)
      in
      Fsa_obs.Metric.Counter.add candidate_counter (List.length cands);
      (* Best candidate that actually keeps the solution consistent (border
         path/cycle constraints can reject shape-valid candidates). *)
      let rec try_add = function
        | [] -> None
        | c :: rest -> (
            match Solution.add sol c with Ok sol' -> Some sol' | Error _ -> try_add rest)
      in
      match try_add cands with
      | Some sol' ->
          track sol';
          if Fsa_obs.Runtime.tracing () then
            Fsa_obs.Runtime.emit
              (Fsa_obs.Event.Move
                 {
                   solver = "greedy";
                   round = max_steps - steps;
                   label = "add best candidate";
                   accepted = true;
                   score_before = Solution.score sol;
                   score_after = Solution.score sol';
                 });
          step sol' (steps - 1)
      | None -> sol
    end
  in
  step (Solution.empty inst) max_steps

let solve ?(max_steps = 10_000) inst =
  solve_tracked ~track:(fun _ -> ()) ~max_steps inst

let solve_budgeted ?(max_steps = 10_000) budget inst =
  let latest = ref None in
  Fsa_obs.Budget.run budget
    ~partial:(fun () ->
      match !latest with Some s -> s | None -> Solution.empty inst)
    (fun () -> solve_tracked ~track:(fun s -> latest := Some s) ~max_steps inst)
