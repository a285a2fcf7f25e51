open Fsa_seq

(* Incremental representation (see DESIGN.md, "Incremental solutions"):

   - [matches] is the master list in insertion order — the order every
     consumer of [matches]/[to_text]/[pp] observes, and the order [prepare]
     walks, exactly as the original list-backed structure did.
   - [score] caches the left fold of the master list's scores and [size] its
     length, so probes during attempt scans are O(1).  The score cache is
     refreshed by re-folding the (small) master list on every mutation
     rather than by +=/-= deltas: a mutation already pays for alignment
     work, the fold keeps the cache bit-identical to the list it summarizes
     (no accumulated drift), and reads stay O(1).
   - [by_h]/[by_m] index the same match values per fragment, sorted by the
     site on that fragment, making [matches_on]/[contribution]/[occupied]/
     [free_sites]/[is_hidden] O(matches on that fragment).  Updates are
     copy-on-write (only the touched fragment's bucket array is copied), so
     solutions remain persistent values. *)
type t = {
  inst : Instance.t;
  matches : Cmatch.t list;
  score : float;
  size : int;
  by_h : Cmatch.t list array;
  by_m : Cmatch.t list array;
}

let sum_scores ms = List.fold_left (fun acc m -> acc +. m.Cmatch.score) 0.0 ms

let index t = function Species.H -> t.by_h | Species.M -> t.by_m

let site_insert side m lst =
  let s = Cmatch.site_of m side in
  let rec ins = function
    | [] -> [ m ]
    | x :: rest as l ->
        if Site.compare s (Cmatch.site_of x side) <= 0 then m :: l
        else x :: ins rest
  in
  ins lst

let site_remove m lst = List.filter (fun m' -> not (Cmatch.equal m m')) lst

(* A match is filed in the buckets of both its fragments.  Both helpers
   edit the given arrays in place: callers pass fresh or copied ones. *)
let file by_h by_m (m : Cmatch.t) =
  by_h.(m.Cmatch.h_frag) <- site_insert Species.H m by_h.(m.Cmatch.h_frag);
  by_m.(m.Cmatch.m_frag) <- site_insert Species.M m by_m.(m.Cmatch.m_frag)

let unfile by_h by_m (m : Cmatch.t) =
  by_h.(m.Cmatch.h_frag) <- site_remove m by_h.(m.Cmatch.h_frag);
  by_m.(m.Cmatch.m_frag) <- site_remove m by_m.(m.Cmatch.m_frag)

let empty inst =
  {
    inst;
    matches = [];
    score = 0.0;
    size = 0;
    by_h = Array.make (Instance.fragment_count inst Species.H) [];
    by_m = Array.make (Instance.fragment_count inst Species.M) [];
  }

(* Rebuild every cache from a master list (no validation). *)
let rebuild inst ms =
  let t = empty inst in
  List.iter (fun m -> file t.by_h t.by_m m) ms;
  { t with matches = ms; score = sum_scores ms; size = List.length ms }

let instance t = t.inst
let matches t = t.matches
let score t = t.score
let size t = t.size

let matches_on t side frag = (index t side).(frag)

let contribution t side frag =
  List.fold_left (fun acc (m : Cmatch.t) -> acc +. m.Cmatch.score) 0.0
    (index t side).(frag)

type role = Unmatched | Simple | Multiple

let role t side frag =
  match matches_on t side frag with
  | [] -> Unmatched
  | [ m ] ->
      let full = Fragment.full_site (Instance.fragment t.inst side frag) in
      if Site.equal (Cmatch.site_of m side) full then Simple else Multiple
  | _ :: _ :: _ -> Multiple

let occupied t side frag =
  List.map (fun m -> Cmatch.site_of m side) (index t side).(frag)

let free_sites t side frag =
  let n = Fragment.length (Instance.fragment t.inst side frag) in
  let rec gaps pos = function
    | [] -> if pos <= n - 1 then [ Site.make pos (n - 1) ] else []
    | (s : Site.t) :: rest ->
        let here = if pos <= s.Site.lo - 1 then [ Site.make pos (s.Site.lo - 1) ] else [] in
        here @ gaps (s.Site.hi + 1) rest
  in
  gaps 0 (occupied t side frag)

let is_hidden t side frag site =
  List.exists
    (fun m -> Site.hides (Cmatch.site_of m side) site)
    (index t side).(frag)

let is_border_match t (m : Cmatch.t) =
  match Cmatch.classify t.inst m with
  | Some Cmatch.Border_match -> true
  | Some Cmatch.Full_match | None -> false

let border_matches_of t side frag =
  List.filter (is_border_match t) (matches_on t side frag)

let border_match_of t side frag =
  match border_matches_of t side frag with [] -> None | m :: _ -> Some m

(* Global node numbering for union-find over fragments of both species. *)
let node t side frag =
  match side with
  | Species.H -> frag
  | Species.M -> Instance.fragment_count t.inst Species.H + frag

let node_count t =
  Instance.fragment_count t.inst Species.H + Instance.fragment_count t.inst Species.M

(* Whether the border-match graph already connects the two fragments — the
   incremental form of the acyclicity invariant: on a valid solution the
   graph is a union of simple paths, so adding the edge (h_frag, m_frag)
   closes a cycle iff its endpoints are connected. *)
let border_connected t ~h_frag ~m_frag =
  let seen = Array.make (node_count t) false in
  let rec dfs side frag =
    node t side frag = node t Species.M m_frag
    || begin
         seen.(node t side frag) <- true;
         List.exists
           (fun (m : Cmatch.t) ->
             let side', frag' =
               match side with
               | Species.H -> (Species.M, m.Cmatch.m_frag)
               | Species.M -> (Species.H, m.Cmatch.h_frag)
             in
             (not seen.(node t side' frag')) && dfs side' frag')
           (border_matches_of t side frag)
       end
  in
  dfs Species.H h_frag

let validate t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_disjoint side count =
    let rec per_frag frag =
      if frag >= count then Ok ()
      else
        let sites = occupied t side frag in
        let rec pairwise = function
          | a :: (b :: _ as rest) ->
              if Site.overlaps a b then
                err "fragment %a/%d: overlapping sites %a %a" Species.pp side frag
                  Site.pp a Site.pp b
              else pairwise rest
          | [ _ ] | [] -> Ok ()
        in
        let* () = pairwise sites in
        per_frag (frag + 1)
    in
    per_frag 0
  in
  let* () = check_disjoint Species.H (Instance.fragment_count t.inst Species.H) in
  let* () = check_disjoint Species.M (Instance.fragment_count t.inst Species.M) in
  let rec check_kinds = function
    | [] -> Ok ()
    | m :: rest -> (
        match Cmatch.classify t.inst m with
        | None -> err "unrealizable match %a" (Cmatch.pp t.inst) m
        | Some _ ->
            let fresh = Cmatch.recompute_score t.inst m in
            if Float.abs (fresh -. m.Cmatch.score) > 1e-9 then
              err "stale score on %a (fresh %.6f)" (Cmatch.pp t.inst) m fresh
            else check_kinds rest)
  in
  let* () = check_kinds t.matches in
  (* Border matches must form a union of simple paths over fragments. *)
  let uf = Fsa_util.Union_find.create (node_count t) in
  let rec check_paths = function
    | [] -> Ok ()
    | m :: rest ->
        if is_border_match t m then begin
          let a = node t Species.H m.Cmatch.h_frag in
          let b = node t Species.M m.Cmatch.m_frag in
          if not (Fsa_util.Union_find.union uf a b) then
            err "border matches form a cycle at %a" (Cmatch.pp t.inst) m
          else check_paths rest
        end
        else check_paths rest
  in
  let* () = check_paths t.matches in
  (* Cache consistency: the incremental structure must agree with the
     master list it summarizes. *)
  let* () =
    if t.size <> List.length t.matches then
      err "size cache %d out of sync (%d matches)" t.size (List.length t.matches)
    else Ok ()
  in
  let* () =
    let fresh = sum_scores t.matches in
    if Float.abs (t.score -. fresh) > 1e-6 then
      err "score cache %.9f out of sync (fold %.9f)" t.score fresh
    else Ok ()
  in
  let check_index side =
    let arr = index t side in
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 arr in
    if total <> t.size then
      err "%a index holds %d entries (size %d)" Species.pp side total t.size
    else begin
      let bad = ref None in
      Array.iteri
        (fun frag l ->
          let rec sorted = function
            | a :: (b :: _ as rest) ->
                Site.compare (Cmatch.site_of a side) (Cmatch.site_of b side) <= 0
                && sorted rest
            | [ _ ] | [] -> true
          in
          if not (sorted l) then bad := Some (frag, "unsorted bucket")
          else
            List.iter
              (fun m ->
                if Cmatch.frag_of m side <> frag then
                  bad := Some (frag, "entry filed under wrong fragment")
                else if not (List.memq m t.matches) then
                  bad := Some (frag, "entry not in the master list"))
              l)
        arr;
      match !bad with
      | Some (frag, what) -> err "%a index, fragment %d: %s" Species.pp side frag what
      | None -> Ok ()
    end
  in
  let* () = check_index Species.H in
  check_index Species.M

let of_matches inst ms =
  let t = rebuild inst ms in
  match validate t with Ok () -> Ok t | Error e -> Error e

let unchecked_of_matches = rebuild

(* Incremental add: the base solution already satisfies the invariant, so
   only conditions involving the new match need checking — its site must be
   disjoint from the occupied sites of its two fragments, it must classify,
   its score must be fresh, and a border match must not close a cycle.
   This replaces the full [validate] (which re-aligned every match) the
   list-backed structure ran on every add. *)
let add t (m : Cmatch.t) =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let clash side =
    let frag = Cmatch.frag_of m side in
    let s = Cmatch.site_of m side in
    List.find_opt
      (fun m' -> Site.overlaps s (Cmatch.site_of m' side))
      (index t side).(frag)
  in
  match clash Species.H with
  | Some m' ->
      err "fragment %a/%d: overlapping sites %a %a" Species.pp Species.H
        m.Cmatch.h_frag Site.pp
        (Cmatch.site_of m' Species.H)
        Site.pp m.Cmatch.h_site
  | None -> (
      match clash Species.M with
      | Some m' ->
          err "fragment %a/%d: overlapping sites %a %a" Species.pp Species.M
            m.Cmatch.m_frag Site.pp
            (Cmatch.site_of m' Species.M)
            Site.pp m.Cmatch.m_site
      | None -> (
          match Cmatch.classify t.inst m with
          | None -> err "unrealizable match %a" (Cmatch.pp t.inst) m
          | Some kind ->
              let fresh = Cmatch.recompute_score t.inst m in
              if Float.abs (fresh -. m.Cmatch.score) > 1e-9 then
                err "stale score on %a (fresh %.6f)" (Cmatch.pp t.inst) m fresh
              else if
                kind = Cmatch.Border_match
                && border_connected t ~h_frag:m.Cmatch.h_frag
                     ~m_frag:m.Cmatch.m_frag
              then err "border matches form a cycle at %a" (Cmatch.pp t.inst) m
              else begin
                let by_h = Array.copy t.by_h and by_m = Array.copy t.by_m in
                file by_h by_m m;
                let matches = m :: t.matches in
                Ok
                  {
                    t with
                    matches;
                    score = sum_scores matches;
                    size = t.size + 1;
                    by_h;
                    by_m;
                  }
              end))

let add_exn t m =
  match add t m with
  | Ok t' -> t'
  | Error e -> invalid_arg ("Solution.add_exn: " ^ e)

let remove t m =
  let matches = List.filter (fun m' -> not (Cmatch.equal m m')) t.matches in
  let by_h = Array.copy t.by_h and by_m = Array.copy t.by_m in
  unfile by_h by_m m;
  {
    t with
    matches;
    score = sum_scores matches;
    size = List.length matches;
    by_h;
    by_m;
  }

type freed = { side : Species.t; frag : int; site : Site.t }

let prepare t side frag site =
  if is_hidden t side frag site then None
  else if
    List.for_all
      (fun m -> Site.disjoint (Cmatch.site_of m side) site)
      (index t side).(frag)
  then
    (* Nothing to detach or shrink: the rebuild below would reproduce [t]. *)
    Some (t, [])
  else begin
    let involves side frag (m : Cmatch.t) = Cmatch.frag_of m side = frag in
    let other_side = Species.other side in
    let full = Fragment.full_site (Instance.fragment t.inst side frag) in
    (* Only the buckets of the two fragments of each dropped or restricted
       match change.  Sites on one fragment are disjoint, so a bucket's
       sorted order is unique and the edited buckets equal the ones a
       rebuild from the new master list would produce. *)
    let by_h = Array.copy t.by_h and by_m = Array.copy t.by_m in
    let file m = file by_h by_m m and unfile m = unfile by_h by_m m in
    let partner (m : Cmatch.t) =
      {
        side = other_side;
        frag = Cmatch.frag_of m other_side;
        site = Cmatch.site_of m other_side;
      }
    in
    let process (kept, freed) (m : Cmatch.t) =
      if not (involves side frag m) then (m :: kept, freed)
      else begin
        let s = Cmatch.site_of m side in
        if Site.disjoint s site then (m :: kept, freed)
        else if Site.equal s full then begin
          (* The fragment itself is plugged somewhere as a unit: detach it,
             freeing its host site on the partner. *)
          unfile m;
          (kept, partner m :: freed)
        end
        else begin
          match Site.subtract s site with
          | [] ->
              (* The whole matched site is being prepared away.  A border
                 match orphans the partner's border site; report it so the
                 caller can try to refill it (the paper's combined
                 attempts). *)
              unfile m;
              (kept, if is_border_match t m then partner m :: freed else freed)
          | [ s' ] ->
              if is_border_match t m then begin
                let h_frag, h_site, m_frag, m_site =
                  match side with
                  | Species.H -> (frag, s', m.Cmatch.m_frag, m.Cmatch.m_site)
                  | Species.M -> (m.Cmatch.h_frag, m.Cmatch.h_site, frag, s')
                in
                unfile m;
                match Cmatch.border t.inst ~h_frag ~h_site ~m_frag ~m_site with
                | Some r ->
                    file r;
                    (r :: kept, freed)
                | None ->
                    (* Cutting from the outer end left an inner-shaped
                       remainder: the border match cannot be restricted, so
                       the 2-island is broken instead (the paper's rule) and
                       the partner's site reported as refillable. *)
                    (kept, partner m :: freed)
              end
              else begin
                (* Full match hosted on this fragment: shrink the host site
                   and realign the plugged partner. *)
                let m' =
                  Cmatch.full t.inst ~full_side:other_side
                    (Cmatch.frag_of m other_side) ~other_frag:frag ~other_site:s'
                in
                unfile m;
                file m';
                (m' :: kept, freed)
              end
          | _ :: _ :: _ ->
              (* Two remainders would mean the prepared site was hidden. *)
              assert false
        end
      end
    in
    let kept, freed = List.fold_left process ([], []) t.matches in
    let matches = List.rev kept in
    Some
      ( {
          t with
          matches;
          score = sum_scores matches;
          size = List.length matches;
          by_h;
          by_m;
        },
        freed )
  end

let to_text t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (m : Cmatch.t) ->
      Buffer.add_string buf
        (Printf.sprintf "M %s %d %d %s %d %d %s\n"
           (Fragment.name (Instance.fragment t.inst Species.H m.Cmatch.h_frag))
           m.Cmatch.h_site.Site.lo m.Cmatch.h_site.Site.hi
           (Fragment.name (Instance.fragment t.inst Species.M m.Cmatch.m_frag))
           m.Cmatch.m_site.Site.lo m.Cmatch.m_site.Site.hi
           (if m.Cmatch.m_reversed then "rev" else "fwd")))
    t.matches;
  Buffer.contents buf

let of_text inst text =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let find side name =
    let frags = Instance.fragments inst side in
    let rec scan i =
      if i >= Array.length frags then None
      else if Fragment.name frags.(i) = name then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let parse_line acc line =
    match acc with
    | Error _ as e -> e
    | Ok matches -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then Ok matches
        else
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "M"; hname; hlo; hhi; mname; mlo; mhi; orient ] -> (
              match (find Species.H hname, find Species.M mname) with
              | Some h_frag, Some m_frag -> (
                  try
                    let h_site = Site.make (int_of_string hlo) (int_of_string hhi) in
                    let m_site = Site.make (int_of_string mlo) (int_of_string mhi) in
                    let m_reversed =
                      match orient with
                      | "rev" -> true
                      | "fwd" -> false
                      | _ -> failwith "orientation must be fwd or rev"
                    in
                    let draft =
                      {
                        Cmatch.h_frag;
                        h_site;
                        m_frag;
                        m_site;
                        m_reversed;
                        score = 0.0;
                      }
                    in
                    let m =
                      { draft with Cmatch.score = Cmatch.recompute_score inst draft }
                    in
                    Ok (m :: matches)
                  with Invalid_argument m | Failure m -> err "bad match line %S: %s" line m)
              | None, _ -> err "unknown H fragment %s" hname
              | _, None -> err "unknown M fragment %s" mname)
          | _ -> err "malformed line %S" line)
  in
  match List.fold_left parse_line (Ok []) (String.split_on_char '\n' text) with
  | Error e -> Error e
  | Ok matches -> of_matches inst (List.rev matches)

let islands t =
  let n = node_count t in
  let uf = Fsa_util.Union_find.create n in
  List.iter
    (fun (m : Cmatch.t) ->
      ignore
        (Fsa_util.Union_find.union uf
           (node t Species.H m.Cmatch.h_frag)
           (node t Species.M m.Cmatch.m_frag)))
    t.matches;
  let nh = Instance.fragment_count t.inst Species.H in
  let denode i = if i < nh then (Species.H, i) else (Species.M, i - nh) in
  Fsa_util.Union_find.groups uf |> Array.to_list
  |> List.filter_map (fun grp ->
         match grp with
         | [] | [ _ ] -> None
         | _ -> Some (List.map denode grp))

let pp ppf t =
  Format.fprintf ppf "@[<v>solution (score %.2f):@,%a@]" (score t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (Cmatch.pp t.inst))
    t.matches
