open Fsa_seq

(* All border-shaped sites of a fragment: proper prefixes and suffixes. *)
let border_sites len =
  let prefixes = List.init (len - 1) (fun i -> Site.make 0 i) in
  let suffixes = List.init (len - 1) (fun i -> Site.make (i + 1) (len - 1)) in
  prefixes @ suffixes

let border_candidates inst =
  let acc = ref [] in
  for hf = 0 to Instance.fragment_count inst Species.H - 1 do
    let hlen = Fragment.length (Instance.fragment inst Species.H hf) in
    for mf = 0 to Instance.fragment_count inst Species.M - 1 do
      (* Candidates need score > 0; skip pairs whose bound is <= 0 (each
         border probe is a fresh O(|h|·|m|) alignment, so this is the whole
         cost of a dead pair). *)
      if Bound.border_viable inst ~h_frag:hf ~m_frag:mf ~threshold:0.0 then begin
      let mlen = Fragment.length (Instance.fragment inst Species.M mf) in
      List.iter
        (fun hs ->
          List.iter
            (fun ms ->
              Fsa_obs.Budget.check ();
              match Cmatch.border inst ~h_frag:hf ~h_site:hs ~m_frag:mf ~m_site:ms with
              | Some m when m.Cmatch.score > 0.0 -> acc := m :: !acc
              | Some _ | None -> ())
            (border_sites mlen))
        (border_sites hlen)
      end
    done
  done;
  !acc

(* Remove the existing border matches of a fragment (breaking its 2-island)
   — required before giving it a new border match. *)
let break_islands sol side frag =
  List.fold_left
    (fun sol bm -> Solution.remove sol bm)
    sol
    (Solution.border_matches_of sol side frag)

let make_border sol (b : Cmatch.t) =
  let sol = break_islands sol Species.H b.Cmatch.h_frag in
  let sol = break_islands sol Species.M b.Cmatch.m_frag in
  match Solution.prepare sol Species.H b.Cmatch.h_frag b.Cmatch.h_site with
  | None -> None
  | Some (sol, _) -> (
      match Solution.prepare sol Species.M b.Cmatch.m_frag b.Cmatch.m_site with
      | None -> None
      | Some (sol, _) -> (
          match Solution.add sol b with Ok sol -> Some sol | Error _ -> None))

let apply_i2 b sol = make_border sol b

let apply_i3 ~island:(h1, m1) ~b1 ~b2 sol =
  (* The island must still exist: h1 and m1 joined by a border match. *)
  match Solution.border_match_of sol Species.H h1 with
  | Some bm when bm.Cmatch.m_frag = m1 -> (
      let sol = Solution.remove sol bm in
      match make_border sol b1 with
      | None -> None
      | Some sol -> make_border sol b2)
  | Some _ | None -> None

let attempts inst candidates sol =
  ignore inst;
  let i2 =
    List.map
      (fun (b : Cmatch.t) ->
        {
          Improve.label =
            (fun () -> Printf.sprintf "I2(h%d,m%d)" b.Cmatch.h_frag b.Cmatch.m_frag);
          apply = apply_i2 b;
        })
      candidates
  in
  (* I3: for each current 2-island (h1 -- m1), all pairs of candidates
     re-marrying h1 and m1 to outside fragments. *)
  let islands =
    List.filter_map
      (fun (m : Cmatch.t) ->
        match Cmatch.classify (Solution.instance sol) m with
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
                  Improve.label = (fun () -> Printf.sprintf "I3(h%d,m%d)" h1 m1);
                  apply = apply_i3 ~island:(h1, m1) ~b1 ~b2;
                })
              b2s)
          b1s)
      islands
  in
  i2 @ i3

let candidate_counter = Fsa_obs.Metric.Counter.make "border_improve.border_candidates"

let solve ?min_gain ?max_improvements inst =
  Fsa_obs.Span.with_ ~name:"border_improve.solve" @@ fun () ->
  let candidates = border_candidates inst in
  Fsa_obs.Metric.Counter.add candidate_counter (List.length candidates);
  Improve.run ?min_gain ?max_improvements ~name:"border_improve"
    ~attempts:(attempts inst candidates)
    ~init:(Solution.empty inst) ()

let solve_scaled ?epsilon inst =
  Improve.with_scaling ?epsilon inst (fun scaled -> fst (solve scaled))

let matching_2approx inst =
  Fsa_obs.Span.with_ ~name:"border_improve.matching_2approx" @@ fun () ->
  let nh = Instance.fragment_count inst Species.H in
  let nm = Instance.fragment_count inst Species.M in
  let w =
    Array.init nh (fun i ->
        Array.init nm (fun j ->
            (* MS is always >= 0, so bound <= 0 pins the pair's weight to
               exactly 0.0 — no table needed. *)
            if
              not
                (Bound.pair_viable inst ~full_side:Species.H i ~other_frag:j
                   ~threshold:0.0)
            then 0.0
            else
              let m =
                Cmatch.full inst ~full_side:Species.H i ~other_frag:j
                  ~other_site:(Fragment.full_site (Instance.fragment inst Species.M j))
              in
              m.Cmatch.score))
  in
  let pairs, _ = Fsa_matching.Hungarian.solve w in
  let matches =
    List.map
      (fun (i, j) ->
        Cmatch.full inst ~full_side:Species.H i ~other_frag:j
          ~other_site:(Fragment.full_site (Instance.fragment inst Species.M j)))
      pairs
  in
  match Solution.of_matches inst matches with
  | Ok sol -> sol
  | Error e -> invalid_arg ("Border_improve.matching_2approx: " ^ e)
