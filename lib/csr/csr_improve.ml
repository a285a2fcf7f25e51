open Fsa_seq

type config = {
  site_mode : Full_improve.site_mode;
  min_gain : float;
  max_improvements : int;
}

let default_config = { site_mode = `Extremes; min_gain = 1e-9; max_improvements = 100_000 }

(* Break a fragment's 2-island, remembering the partner's orphaned border
   site so it can be TPA-refilled (the paper's combined attempts). *)
let break_islands sol side frag =
  List.fold_left
    (fun (sol, orphans) (bm : Cmatch.t) ->
      let other = Species.other side in
      let orphan =
        {
          Solution.side = other;
          frag = Cmatch.frag_of bm other;
          site = Cmatch.site_of bm other;
        }
      in
      (Solution.remove sol bm, orphan :: orphans))
    (sol, [])
    (Solution.border_matches_of sol side frag)

let fill_freed ~h_frag ~m_frag sol (fr : Solution.freed) =
  (* Candidates for a freed site are the fragments of the other species;
     never re-plug the two fragments of the border match being built. *)
  let exclude =
    match Species.other fr.Solution.side with
    | Species.H -> [ h_frag ]
    | Species.M -> [ m_frag ]
  in
  Improve.tpa_fill sol ~host:(fr.Solution.side, fr.Solution.frag)
    ~zones:[ fr.Solution.site ] ~exclude

(* Generalized I2 core: break islands, prepare containers, add the border
   match, refill container leftovers and freed sites. *)
let make_border_general sol (b : Cmatch.t) ~ch ~cm =
  let hf = b.Cmatch.h_frag and mf = b.Cmatch.m_frag in
  let sol, orphans_h = break_islands sol Species.H hf in
  let sol, orphans_m = break_islands sol Species.M mf in
  match Solution.prepare sol Species.H hf ch with
  | None -> None
  | Some (sol, freed_h) -> (
      match Solution.prepare sol Species.M mf cm with
      | None -> None
      | Some (sol, freed_m) -> (
          match Solution.add sol b with
          | Error _ -> None
          | Ok sol ->
              let fill_zones sol host zones exclude =
                if zones = [] then sol
                else Improve.tpa_fill sol ~host ~zones ~exclude
              in
              let sol =
                fill_zones sol (Species.H, hf) (Site.subtract ch b.Cmatch.h_site) [ mf ]
              in
              let sol =
                fill_zones sol (Species.M, mf) (Site.subtract cm b.Cmatch.m_site) [ hf ]
              in
              let freed = freed_h @ freed_m @ orphans_h @ orphans_m in
              Some (List.fold_left (fill_freed ~h_frag:hf ~m_frag:mf) sol freed)))

let containers mode inst side frag (site : Site.t) =
  let n = Fragment.length (Instance.fragment inst side frag) in
  match mode with
  | `Extremes ->
      let full = Site.make 0 (n - 1) in
      if Site.equal site full then [ site ] else [ site; full ]
  | `All_containing ->
      let acc = ref [] in
      for lo = 0 to site.Site.lo do
        for hi = site.Site.hi to n - 1 do
          acc := Site.make lo hi :: !acc
        done
      done;
      !acc

(* I2 breaks both 2-islands, prepares [ch] on hf and [cm] on mf, adds [b]
   and refills both leftover zones and every freed site. *)
let i2_shape (b : Cmatch.t) ~ch ~cm =
  Attempt_bound.shape ~side:Species.H ~a:b.Cmatch.h_frag ~a_site:ch
    ~a_fill:(not (Site.equal ch b.Cmatch.h_site))
    ~b:b.Cmatch.m_frag ~b_site:cm
    ~b_fill:(not (Site.equal cm b.Cmatch.m_site))
    ~break:true

let apply_i2 ctx b ~ch ~cm sol =
  if Attempt_bound.refuses ctx (i2_shape b ~ch ~cm) ~gain:b.Cmatch.score sol then None
  else make_border_general sol b ~ch ~cm

let apply_i3 ~island:(h1, m1) ~b1 ~b2 sol =
  match Solution.border_match_of sol Species.H h1 with
  | Some bm when bm.Cmatch.m_frag = m1 -> (
      let sol = Solution.remove sol bm in
      match make_border_general sol b1 ~ch:b1.Cmatch.h_site ~cm:b1.Cmatch.m_site with
      | None -> None
      | Some sol ->
          make_border_general sol b2 ~ch:b2.Cmatch.h_site ~cm:b2.Cmatch.m_site)
  | Some _ | None -> None

(* I1 and I2 attempts do not depend on the solution, so partially applying
   [attempts config inst candidates] builds them once per solve; only the
   I3 tail — one family per current 2-island — is rebuilt every round. *)
let attempts config inst candidates =
  let i1 = Full_improve.attempts ~site_mode:config.site_mode inst in
  let ctx = Attempt_bound.create inst in
  let i2 =
    List.concat_map
      (fun (b : Cmatch.t) ->
        let chs = containers config.site_mode inst Species.H b.Cmatch.h_frag b.Cmatch.h_site in
        let cms = containers config.site_mode inst Species.M b.Cmatch.m_frag b.Cmatch.m_site in
        List.concat_map
          (fun ch ->
            List.map
              (fun cm ->
                {
                  Improve.label =
                    (fun () ->
                      Printf.sprintf "I2'(h%d,m%d)" b.Cmatch.h_frag b.Cmatch.m_frag);
                  apply = apply_i2 ctx b ~ch ~cm;
                })
              cms)
          chs)
      candidates
  in
  let fixed = i2 @ i1 in
  fun sol ->
    let islands =
      List.filter_map
        (fun (m : Cmatch.t) ->
          match Cmatch.classify inst m with
          | Some Cmatch.Border_match -> Some (m.Cmatch.h_frag, m.Cmatch.m_frag)
          | Some Cmatch.Full_match | None -> None)
        (Solution.matches sol)
    in
    let i3 =
      List.concat_map
        (fun (h1, m1) ->
          let b1s =
            List.filter
              (fun (b : Cmatch.t) -> b.Cmatch.h_frag = h1 && b.Cmatch.m_frag <> m1)
              candidates
          in
          let b2s =
            List.filter
              (fun (b : Cmatch.t) -> b.Cmatch.m_frag = m1 && b.Cmatch.h_frag <> h1)
              candidates
          in
          List.concat_map
            (fun b1 ->
              List.map
                (fun b2 ->
                  {
                    Improve.label = (fun () -> Printf.sprintf "I3'(h%d,m%d)" h1 m1);
                    apply = apply_i3 ~island:(h1, m1) ~b1 ~b2;
                  })
                b2s)
            b1s)
        islands
    in
    fixed @ i3

let candidate_counter = Fsa_obs.Metric.Counter.make "csr_improve.border_candidates"

(* §4.1's reference solution: the better of the two cheap answers, the
   4-approximation on a tie.  The local search never ends below it. *)
let start inst =
  let four = One_csr.four_approx inst in
  let matching = Border_improve.matching_2approx inst in
  if Solution.score matching > Solution.score four then matching else four

let solve ?(config = default_config) inst =
  Fsa_obs.Span.with_ ~name:"csr_improve.solve" @@ fun () ->
  let init = start inst in
  let candidates = Border_improve.border_candidates inst in
  Fsa_obs.Metric.Counter.add candidate_counter (List.length candidates);
  Improve.run ~min_gain:config.min_gain ~max_improvements:config.max_improvements
    ~name:"csr_improve"
    ~attempts:(attempts config inst candidates)
    ~init ()

let solve_budgeted ?(config = default_config) budget inst =
  Fsa_obs.Span.with_ ~name:"csr_improve.solve" @@ fun () ->
  (* Two stages share one budget, as in Full_improve.solve_budgeted: the
     start, the border candidates and the fixed I2/I1 attempt space, then
     the local search. *)
  match
    Fsa_obs.Budget.run budget
      ~partial:(fun () -> (Solution.empty inst, [], fun _ -> []))
      (fun () ->
        let init = start inst in
        let candidates = Border_improve.border_candidates inst in
        (init, candidates, attempts config inst candidates))
  with
  | Error (`Budget_exceeded ((empty, _, _), reason)) ->
      Error
        (`Budget_exceeded
           ((empty, { Improve.rounds = 0; improvements = 0; evaluated = 0 }), reason))
  | Ok (init, candidates, attempts) ->
      Fsa_obs.Metric.Counter.add candidate_counter (List.length candidates);
      Improve.run_budgeted ~min_gain:config.min_gain
        ~max_improvements:config.max_improvements ~name:"csr_improve" ~attempts ~init
        budget ()

let solve_scaled ?config ?epsilon inst =
  Improve.with_scaling ?epsilon inst (fun scaled -> fst (solve ?config scaled))

let solve_best inst =
  Fsa_obs.Span.with_ ~name:"csr_improve.solve_best" @@ fun () -> fst (solve inst)
