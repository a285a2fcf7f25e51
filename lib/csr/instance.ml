open Fsa_seq

type t = {
  alphabet : Alphabet.t;
  h : Fragment.t array;
  m : Fragment.t array;
  sigma : Scoring.t;
  memo : Memo.t;
}

let of_arrays alphabet h m sigma =
  { alphabet; h; m; sigma; memo = Memo.create ~h:(Array.length h) ~m:(Array.length m) }

let make ~alphabet ~h ~m ~sigma =
  if h = [] || m = [] then invalid_arg "Instance.make: a side has no fragments";
  of_arrays alphabet (Array.of_list h) (Array.of_list m) sigma

let fragments t = function Species.H -> t.h | Species.M -> t.m
let fragment t side i = (fragments t side).(i)
let fragment_count t side = Array.length (fragments t side)

let total_length t side =
  Array.fold_left (fun acc f -> acc + Fragment.length f) 0 (fragments t side)

let max_matches t = min (total_length t Species.H) (total_length t Species.M)

let with_sigma t sigma = of_arrays t.alphabet t.h t.m sigma

let paper_example () =
  let alphabet = Alphabet.of_names [ "a"; "b"; "c"; "d"; "s"; "t"; "u"; "v" ] in
  let sym name = Alphabet.symbol_of_string alphabet name in
  let frag name syms = Fragment.make name (Array.of_list (List.map sym syms)) in
  let sigma =
    Scoring.of_list
      [
        (sym "a", sym "s", 4.0);
        (sym "a", sym "t", 1.0);
        (sym "b", sym "t'", 3.0);
        (sym "c", sym "u", 5.0);
        (sym "d", sym "t", 2.0);
        (sym "d", sym "v'", 2.0);
      ]
  in
  make ~alphabet
    ~h:[ frag "h1" [ "a"; "b"; "c" ]; frag "h2" [ "d" ] ]
    ~m:[ frag "m1" [ "s"; "t" ]; frag "m2" [ "u"; "v" ] ]
    ~sigma

let to_text t =
  let buf = Buffer.create 256 in
  let frag_line tag f =
    Buffer.add_string buf tag;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Fragment.name f);
    Buffer.add_string buf ":";
    Array.iter
      (fun s ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Alphabet.symbol_to_string t.alphabet s))
      (Fragment.symbols f);
    Buffer.add_char buf '\n'
  in
  Array.iter (frag_line "H") t.h;
  Array.iter (frag_line "M") t.m;
  let entries = List.sort compare (Scoring.entries t.sigma) in
  List.iter
    (fun (hr, mr, opposite, v) ->
      Buffer.add_string buf
        (Printf.sprintf "S %s %s%s %g\n"
           (Alphabet.name t.alphabet hr)
           (Alphabet.name t.alphabet mr)
           (if opposite then "'" else "")
           v))
    entries;
  Buffer.contents buf

let of_text text =
  let alphabet = Alphabet.create () in
  let h = ref [] and m = ref [] in
  let names = Hashtbl.create 16 in
  let sigma = Scoring.create () in
  let parse_line lineno line =
    let fail fmt =
      Printf.ksprintf (fun msg -> failwith (Printf.sprintf "Instance.of_text: line %d: %s" lineno msg)) fmt
    in
    let parse_fragment tag side rest =
      match String.index_opt rest ':' with
      | None -> fail "fragment line missing ':'"
      | Some i ->
          let name = String.trim (String.sub rest 0 i) in
          if name = "" then fail "empty fragment name";
          (* Solution text names its fragments, so a side's names must differ. *)
          if Hashtbl.mem names (tag, name) then fail "%c fragment %S named twice" tag name;
          Hashtbl.add names (tag, name) ();
          let syms =
            String.sub rest (i + 1) (String.length rest - i - 1)
            |> String.split_on_char ' '
            |> List.filter (fun s -> s <> "")
            |> List.map (Alphabet.symbol_of_string alphabet)
          in
          side := Fragment.make name (Array.of_list syms) :: !side
    in
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      match (line.[0], String.sub line 1 (String.length line - 1)) with
      | 'H', rest -> parse_fragment 'H' h rest
      | 'M', rest -> parse_fragment 'M' m rest
      | 'S', rest -> (
          match
            String.split_on_char ' ' (String.trim rest)
            |> List.filter (fun s -> s <> "")
          with
          | [ a; b; v ] -> (
              match float_of_string_opt v with
              | Some x when Float.is_finite x ->
                  Scoring.set sigma
                    (Alphabet.symbol_of_string alphabet a)
                    (Alphabet.symbol_of_string alphabet b)
                    x
              | _ -> fail "score %S is not a finite number" v)
          | _ -> fail "malformed S line")
      | _ -> fail "bad line %S" line
  in
  List.iteri (fun i line -> parse_line (i + 1) line) (String.split_on_char '\n' text);
  make ~alphabet ~h:(List.rev !h) ~m:(List.rev !m) ~sigma

(* Cut positions 0 < c1 < ... < c_{k-1} < n partition [0, n) into k pieces. *)
let cut_into rng pieces n =
  if pieces > n then invalid_arg "Instance: more fragments than regions";
  let cuts = Fsa_util.Rng.sample_without_replacement rng (pieces - 1) (n - 1) in
  let cuts = Array.map (fun c -> c + 1) cuts in
  let bounds = Array.concat [ [| 0 |]; cuts; [| n |] ] in
  Array.init pieces (fun i -> (bounds.(i), bounds.(i + 1)))

let fragment_of_slice alphabet prefix idx symbols (lo, hi) =
  let name = Printf.sprintf "%s%d" prefix (idx + 1) in
  ignore alphabet;
  Fragment.make name (Array.sub symbols lo (hi - lo))

(* Shared planted-genome core.  [noise_span = None] draws noise pairs
   uniformly (the classic [random_planted]); [Some span] keeps each noise
   pair within [span] ancestral positions of its H region, so fragment
   pairs far apart in the ancestral order share no σ entries at all — the
   sparse structure real comparative-genomics inputs have, and the one the
   {!Bound} pruning layer exploits.  The [None] path performs exactly the
   same RNG draws as the historical [random_planted], so seeded instances
   (benches, snapshots, pinned fuzz corpus) are unchanged. *)
let planted_core rng ~regions ~h_fragments ~m_fragments ~inversion_rate
    ~noise_pairs ~noise_span =
  if regions < 2 then invalid_arg "Instance.random_planted: regions < 2";
  let alphabet =
    Alphabet.of_names (List.init regions (fun i -> Printf.sprintf "r%d" i))
  in
  let ancestral = Array.init regions Symbol.make in
  (* M side: copy with random segment inversions.  An inversion reverses a
     contiguous run and flips each symbol's orientation. *)
  let m_seq = Array.copy ancestral in
  let i = ref 0 in
  while !i < regions do
    if Fsa_util.Rng.bernoulli rng inversion_rate then begin
      let len = min (1 + Fsa_util.Rng.geometric rng 0.5) (regions - !i) in
      let seg = Array.sub m_seq !i len in
      for k = 0 to len - 1 do
        m_seq.(!i + k) <- Symbol.reverse seg.(len - 1 - k)
      done;
      i := !i + len
    end
    else incr i
  done;
  let sigma = Scoring.create () in
  (* Conserved-region self-matches: score each region against its (possibly
     inverted) M-side occurrence. *)
  Array.iter
    (fun m_sym ->
      let r = Symbol.id m_sym in
      let v = 1.0 +. Fsa_util.Rng.float rng 9.0 in
      Scoring.set sigma (Symbol.make r) m_sym v)
    m_seq;
  for _ = 1 to noise_pairs do
    let hr = Fsa_util.Rng.int rng regions in
    let mr =
      match noise_span with
      | None -> Fsa_util.Rng.int rng regions
      | Some span ->
          let lo = max 0 (hr - span) and hi = min (regions - 1) (hr + span) in
          lo + Fsa_util.Rng.int rng (hi - lo + 1)
    in
    let msym = if Fsa_util.Rng.bool rng then Symbol.make mr else Symbol.reversed mr in
    Scoring.set sigma (Symbol.make hr) msym (0.5 +. Fsa_util.Rng.float rng 2.5)
  done;
  let h_slices = cut_into rng h_fragments regions in
  let m_slices = cut_into rng m_fragments regions in
  let h =
    Array.to_list
      (Array.mapi (fun i s -> fragment_of_slice alphabet "h" i ancestral s) h_slices)
  in
  let m =
    Array.to_list
      (Array.mapi (fun i s -> fragment_of_slice alphabet "m" i m_seq s) m_slices)
  in
  (* Randomly flip whole contigs: assembly does not know strands. *)
  let maybe_flip f = if Fsa_util.Rng.bool rng then Fragment.reverse f else f in
  make ~alphabet ~h:(List.map maybe_flip h) ~m:(List.map maybe_flip m) ~sigma

let random_planted rng ~regions ~h_fragments ~m_fragments ~inversion_rate
    ~noise_pairs =
  planted_core rng ~regions ~h_fragments ~m_fragments ~inversion_rate
    ~noise_pairs ~noise_span:None

let random_sparse rng ~regions ~h_fragments ~m_fragments ~inversion_rate
    ~noise_pairs ~noise_span =
  if noise_span < 0 then invalid_arg "Instance.random_sparse: negative span";
  planted_core rng ~regions ~h_fragments ~m_fragments ~inversion_rate
    ~noise_pairs ~noise_span:(Some noise_span)

let random_uniform rng ~regions ~h_fragments ~m_fragments ~density =
  if regions < 2 then invalid_arg "Instance.random_uniform: regions < 2";
  let alphabet =
    Alphabet.of_names (List.init regions (fun i -> Printf.sprintf "r%d" i))
  in
  let random_side prefix count =
    let perm = Fsa_util.Rng.permutation rng regions in
    let seq =
      Array.map
        (fun r ->
          if Fsa_util.Rng.bool rng then Symbol.reversed r else Symbol.make r)
        perm
    in
    let slices = cut_into rng count regions in
    Array.to_list
      (Array.mapi (fun i s -> fragment_of_slice alphabet prefix i seq s) slices)
  in
  let sigma = Scoring.create () in
  for hr = 0 to regions - 1 do
    for mr = 0 to regions - 1 do
      if Fsa_util.Rng.bernoulli rng density then begin
        let msym = if Fsa_util.Rng.bool rng then Symbol.make mr else Symbol.reversed mr in
        Scoring.set sigma (Symbol.make hr) msym (Fsa_util.Rng.float rng 10.0)
      end
    done
  done;
  make ~alphabet ~h:(random_side "h" h_fragments) ~m:(random_side "m" m_fragments)
    ~sigma

let pp ppf t =
  let namer = Alphabet.name t.alphabet in
  Format.fprintf ppf "@[<v>H:@,";
  Array.iter (fun f -> Format.fprintf ppf "  %a@," (Fragment.pp_with namer) f) t.h;
  Format.fprintf ppf "M:@,";
  Array.iter (fun f -> Format.fprintf ppf "  %a@," (Fragment.pp_with namer) f) t.m;
  Format.fprintf ppf "σ: %a@]" (Scoring.pp namer) t.sigma
