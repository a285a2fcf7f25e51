open Fsa_seq

type site_mode = [ `All_containing | `Extremes ]

(* Containing sites ĝ tried for a target ḡ.  The full fragment site is never
   hidden, so `Extremes tries the two ends of the containment lattice. *)
let containing_sites mode inst g_side g (target : Site.t) =
  let n = Fragment.length (Instance.fragment inst g_side g) in
  match mode with
  | `Extremes ->
      let full = Site.make 0 (n - 1) in
      if Site.equal target full then [ target ] else [ target; full ]
  | `All_containing ->
      let acc = ref [] in
      for lo = 0 to target.Site.lo do
        for hi = target.Site.hi to n - 1 do
          acc := Site.make lo hi :: !acc
        done
      done;
      !acc

(* I1 prepares [container] on g, clears f whole, adds the plug and refills
   g's leftover zone and every freed site: [a] = g, [b] = f. *)
let i1_shape inst ~f_side ~f ~g ~container ~fill =
  Attempt_bound.shape ~side:(Species.other f_side) ~a:g ~a_site:container ~a_fill:fill
    ~b:f
    ~b_site:(Fragment.full_site (Instance.fragment inst f_side f))
    ~b_fill:false ~break:false

(* [full_fill] is the (f, g) pair's shape for the attempts that fill g's
   leftover zone inside g's full site: one value, so they share its sum.
   Every other attempt builds its own shape when it is checked. *)
let attempt_shape inst full_fill ~f_side ~f ~g ~target ~container =
  let fill = not (Site.equal container target) in
  let whole_g = Fragment.full_site (Instance.fragment inst (Species.other f_side) g) in
  if fill && Site.equal container whole_g then full_fill
  else i1_shape inst ~f_side ~f ~g ~container ~fill

let apply_i1 ctx full_fill ~f_side ~f ~g ~target ~container sol =
  let inst = Solution.instance sol in
  let g_side = Species.other f_side in
  (* The plug is rejected below unless its score is > 0; when even the
     admissible bound is <= 0 the table build can be skipped outright. *)
  if not (Bound.pair_viable inst ~full_side:f_side f ~other_frag:g ~threshold:0.0)
  then None
  else
  let plug = Cmatch.full inst ~full_side:f_side f ~other_frag:g ~other_site:target in
  if plug.Cmatch.score <= 0.0 then None
  else if
    Attempt_bound.refuses ctx
      (attempt_shape inst full_fill ~f_side ~f ~g ~target ~container)
      ~gain:plug.Cmatch.score sol
  then None
  else
    match Solution.prepare sol g_side g container with
    | None -> None (* container hidden *)
    | Some (sol, freed_g) -> (
        let f_full = Fragment.full_site (Instance.fragment inst f_side f) in
        match Solution.prepare sol f_side f f_full with
        | None -> None
        | Some (sol, freed_f) -> (
            match Solution.add sol plug with
            | Error _ -> None
            | Ok sol ->
                (* Refill the rest of the prepared container, then every
                   site freed by detachments. *)
                let zones = Site.subtract container target in
                let sol =
                  if zones = [] then sol
                  else Improve.tpa_fill sol ~host:(g_side, g) ~zones ~exclude:[ f ]
                in
                let fill sol (fr : Solution.freed) =
                  let exclude =
                    if Species.equal (Species.other fr.Solution.side) f_side then [ f ]
                    else [ g ]
                  in
                  Improve.tpa_fill sol
                    ~host:(fr.Solution.side, fr.Solution.frag)
                    ~zones:[ fr.Solution.site ] ~exclude
                in
                Some (List.fold_left fill sol (freed_g @ freed_f))))

(* Formatted only when a traced run commits the attempt (Improve.attempt). *)
let i1_label ~f_side ~f ~g ~target ~container () =
  Printf.sprintf "I1(%s%d -> %s%d%s in %s)"
    (Species.to_string f_side) f
    (Species.to_string (Species.other f_side)) g
    (Format.asprintf "%a" Site.pp target)
    (Format.asprintf "%a" Site.pp container)

let attempts ?(site_mode = `Extremes) inst =
  let acc = ref [] in
  let ctx = Attempt_bound.create inst in
  let per_direction f_side =
    let g_side = Species.other f_side in
    for f = 0 to Instance.fragment_count inst f_side - 1 do
      for g = 0 to Instance.fragment_count inst g_side - 1 do
        let glen = Fragment.length (Instance.fragment inst g_side g) in
        let full_fill =
          i1_shape inst ~f_side ~f ~g ~container:(Site.make 0 (glen - 1)) ~fill:true
        in
        List.iter
          (fun target ->
            Fsa_obs.Budget.check ();
            List.iter
              (fun container ->
                acc :=
                  {
                    Improve.label = i1_label ~f_side ~f ~g ~target ~container;
                    apply = apply_i1 ctx full_fill ~f_side ~f ~g ~target ~container;
                  }
                  :: !acc)
              (containing_sites site_mode inst g_side g target))
          (Site.all_subsites glen)
      done
    done
  in
  per_direction Species.H;
  per_direction Species.M;
  List.rev !acc

let attempt_counter = Fsa_obs.Metric.Counter.make "full_improve.attempt_space"

let solve ?site_mode ?min_gain ?max_improvements inst =
  (* The I1 parameter space does not depend on the current solution, so the
     attempt list is built once; applicability is re-checked inside apply. *)
  Fsa_obs.Span.with_ ~name:"full_improve.solve" @@ fun () ->
  let atts = attempts ?site_mode inst in
  Fsa_obs.Metric.Counter.add attempt_counter (List.length atts);
  Improve.run ?min_gain ?max_improvements ~name:"full_improve"
    ~attempts:(fun _ -> atts)
    ~init:(Solution.empty inst) ()

let solve_budgeted ?site_mode ?min_gain ?max_improvements budget inst =
  Fsa_obs.Span.with_ ~name:"full_improve.solve" @@ fun () ->
  (* Two stages under the same (cumulative, sticky) budget: enumerate the
     attempt space, then run the local search.  Tripping during enumeration
     leaves only the empty solution to report. *)
  match
    Fsa_obs.Budget.run budget
      ~partial:(fun () -> [])
      (fun () -> attempts ?site_mode inst)
  with
  | Error (`Budget_exceeded (_, reason)) ->
      Error
        (`Budget_exceeded
           ( ( Solution.empty inst,
               { Improve.rounds = 0; improvements = 0; evaluated = 0 } ),
             reason ))
  | Ok atts ->
      Fsa_obs.Metric.Counter.add attempt_counter (List.length atts);
      Improve.run_budgeted ?min_gain ?max_improvements ~name:"full_improve"
        ~attempts:(fun _ -> atts)
        ~init:(Solution.empty inst) budget ()

let solve_scaled ?site_mode ?epsilon inst =
  Improve.with_scaling ?epsilon inst (fun scaled -> fst (solve ?site_mode scaled))

(* ------------------------------------------------------------------ *)
(* Lemma 3: the role-oracle 2-approximation.                            *)

let lemma3_2approx inst ~multiple =
  (* One global TPA run per direction: jobs are the simple fragments of
     [simple_side]; intervals are all sites of all multiple fragments of
     the other side, laid out on one line (as in One_csr's reduction).  A
     single run over all hosts is essential: the per-host greedy variant
     can burn a fragment on the wrong host and lose the factor 2. *)
  let pass sol simple_side =
    let host_side = Species.other simple_side in
    let host_count = Instance.fragment_count inst host_side in
    (* Line offsets for multiple hosts only. *)
    let off = Array.make (host_count + 1) 0 in
    for g = 0 to host_count - 1 do
      let len =
        if multiple host_side g then
          Fragment.length (Instance.fragment inst host_side g)
        else 0
      in
      off.(g + 1) <- off.(g) + len
    done;
    let jobs = Instance.fragment_count inst simple_side in
    let cands = ref [] in
    for job = 0 to jobs - 1 do
      if not (multiple simple_side job) then
        for g = 0 to host_count - 1 do
          if
            multiple host_side g
            && Bound.pair_viable inst ~full_side:simple_side job ~other_frag:g
                 ~threshold:0.0
          then begin
            let len = Fragment.length (Instance.fragment inst host_side g) in
            let tbl =
              Cmatch.full_table inst ~full_side:simple_side job ~other_frag:g
            in
            List.iter
              (fun (site : Site.t) ->
                let ms, _rev =
                  Cmatch.table_ms tbl ~lo:site.Site.lo ~hi:site.Site.hi
                in
                if ms > 0.0 then
                  cands :=
                    {
                      Fsa_intervals.Isp.job;
                      interval =
                        Fsa_intervals.Interval.make
                          (off.(g) + site.Site.lo)
                          (off.(g) + site.Site.hi);
                      profit = ms;
                    }
                    :: !cands)
              (Site.all_subsites len)
          end
        done
    done;
    if !cands = [] then sol
    else begin
      let isp = Fsa_intervals.Isp.create ~jobs !cands in
      let _, selection = Fsa_intervals.Isp.tpa isp in
      let frag_of_pos p =
        let rec find g = if off.(g + 1) > p then g else find (g + 1) in
        find 0
      in
      List.fold_left
        (fun sol (c : Fsa_intervals.Isp.candidate) ->
          let g = frag_of_pos c.interval.Fsa_intervals.Interval.lo in
          let site =
            Site.make
              (c.interval.Fsa_intervals.Interval.lo - off.(g))
              (c.interval.Fsa_intervals.Interval.hi - off.(g))
          in
          let m =
            Cmatch.full inst ~full_side:simple_side c.job ~other_frag:g
              ~other_site:site
          in
          match Solution.add sol m with Ok sol -> sol | Error _ -> sol)
        sol selection
    end
  in
  let sol = pass (Solution.empty inst) Species.M in
  pass sol Species.H

let roles_of_solution sol side frag =
  match Solution.role sol side frag with
  | Solution.Multiple -> true
  | Solution.Unmatched -> false
  | Solution.Simple -> (
      (* Def 5 leaves the designation free in a two-fragment island; a
         full-against-full match must still have one multiple end for the
         TPA passes to host it, so designate the H end. *)
      match Solution.matches_on sol side frag with
      | [ m ] ->
          let inst = Solution.instance sol in
          let other = Species.other side in
          let other_full =
            Fsa_seq.Fragment.full_site
              (Instance.fragment inst other (Cmatch.frag_of m other))
          in
          side = Species.H && Fsa_seq.Site.equal (Cmatch.site_of m other) other_full
      | _ -> false)
