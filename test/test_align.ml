(* Tests for Fsa_align: DP engines against the executable specification,
   traceback integrity, banded and adaptive NW, seed-and-extend, chaining. *)

open Fsa_seq
open Fsa_align

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let qtest t = QCheck_alcotest.to_alcotest ~verbose:false t

(* Random region-word generator with a shared random σ. *)
let word_gen =
  QCheck.(
    map
      (fun ids ->
        Array.of_list
          (List.map (fun (i, r) -> if r then Symbol.reversed i else Symbol.make i) ids))
      (list_of_size (Gen.int_range 0 7) (pair (int_bound 5) bool)))

let sigma_of_seed seed =
  let rng = Fsa_util.Rng.create seed in
  let t = Scoring.create () in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if Fsa_util.Rng.bernoulli rng 0.5 then
        Scoring.set t (Symbol.make i)
          (if Fsa_util.Rng.bool rng then Symbol.make j else Symbol.reversed j)
          (Fsa_util.Rng.float rng 10.0 -. 2.0)
    done
  done;
  t

(* ------------------------------------------------------------------ *)
(* max-weight alignment (P_score)                                       *)

let test_pscore_matches_spec_qcheck =
  QCheck.Test.make ~name:"P_score DP equals memoized specification" ~count:300
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      let sigma = sigma_of_seed seed in
      let dp = Region_align.p_score sigma a b in
      let spec = Padded.best_pair_score_brute sigma a b in
      Float.abs (dp -. spec) < 1e-9)

let test_pscore_traceback_consistent_qcheck =
  QCheck.Test.make ~name:"traceback score equals reported score" ~count:300
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      let sigma = sigma_of_seed seed in
      let al = Region_align.p_alignment sigma a b in
      let recomputed =
        Pairwise.score_of_ops
          ~score:(fun i j -> Scoring.get sigma a.(i) b.(j))
          al.Pairwise.ops
      in
      Float.abs (al.Pairwise.score -. recomputed) < 1e-9)

let test_pscore_ops_cover_both_words_qcheck =
  QCheck.Test.make ~name:"alignment columns cover every element once" ~count:300
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      let sigma = sigma_of_seed seed in
      let al = Region_align.p_alignment sigma a b in
      let cover_a = Array.make (Array.length a) 0 in
      let cover_b = Array.make (Array.length b) 0 in
      List.iter
        (fun (op : Pairwise.op) ->
          match op with
          | Both (i, j) ->
              cover_a.(i) <- cover_a.(i) + 1;
              cover_b.(j) <- cover_b.(j) + 1
          | A_only i -> cover_a.(i) <- cover_a.(i) + 1
          | B_only j -> cover_b.(j) <- cover_b.(j) + 1)
        al.Pairwise.ops;
      Array.for_all (fun c -> c = 1) cover_a && Array.for_all (fun c -> c = 1) cover_b)

let test_pscore_reversal_invariance_qcheck =
  QCheck.Test.make ~name:"P_score(uᴿ, vᴿ) = P_score(u, v)" ~count:300
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      let sigma = sigma_of_seed seed in
      Float.abs
        (Region_align.p_score sigma a b
        -. Region_align.p_score sigma (Region_align.reverse_word a)
             (Region_align.reverse_word b))
      < 1e-9)

let test_pscore_nonnegative_qcheck =
  QCheck.Test.make ~name:"P_score is never negative" ~count:300
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      Region_align.p_score (sigma_of_seed seed) a b >= 0.0)

let test_pscore_known_crossing () =
  (* σ(0,0)=2, σ(1,1)=3: identical words take both; crossed words take one. *)
  let sigma =
    Scoring.of_list
      [ (Symbol.make 0, Symbol.make 0, 2.0); (Symbol.make 1, Symbol.make 1, 3.0) ]
  in
  let w01 = [| Symbol.make 0; Symbol.make 1 |] in
  let w10 = [| Symbol.make 1; Symbol.make 0 |] in
  check_float "parallel" 5.0 (Region_align.p_score sigma w01 w01);
  check_float "crossing" 3.0 (Region_align.p_score sigma w01 w10)

let test_ms_full_orientation () =
  (* σ(0, 1ᴿ) = 4: matching ⟨0⟩ against ⟨1⟩ needs the reversal. *)
  let sigma = Scoring.of_list [ (Symbol.make 0, Symbol.reversed 1, 4.0) ] in
  let score, reversed = Region_align.ms_full sigma [| Symbol.make 0 |] [| Symbol.make 1 |] in
  check_float "score" 4.0 score;
  check_bool "reversed orientation chosen" true reversed;
  (* Ties prefer forward. *)
  let sigma2 = Scoring.of_list [ (Symbol.make 0, Symbol.make 1, 4.0); (Symbol.make 0, Symbol.reversed 1, 4.0) ] in
  let _, rev2 = Region_align.ms_full sigma2 [| Symbol.make 0 |] [| Symbol.make 1 |] in
  check_bool "tie prefers forward" false rev2

let test_padded_pair_of_alignment_qcheck =
  QCheck.Test.make ~name:"padded pair realizes the alignment score" ~count:200
    QCheck.(triple (int_bound 1000) word_gen word_gen)
    (fun (seed, a, b) ->
      let sigma = sigma_of_seed seed in
      let al = Region_align.p_alignment sigma a b in
      let u, v = Region_align.padded_pair_of_alignment a b al in
      Padded.is_padding_of u a && Padded.is_padding_of v b
      && Float.abs (Padded.score sigma u v -. al.Pairwise.score) < 1e-9)

(* ------------------------------------------------------------------ *)
(* DNA global / banded                                                 *)

let test_nw_identical () =
  let d = Dna.of_string "ACGTACGT" in
  let al = Dna_align.global d d in
  check_float "perfect score" 8.0 al.Pairwise.score

let test_nw_gap_penalty () =
  let a = Dna.of_string "ACGT" and b = Dna.of_string "AC" in
  let al = Dna_align.global a b in
  (* 2 matches, 2 gaps at 1.5 *)
  check_float "score" (2.0 -. 3.0) al.Pairwise.score

let test_nw_substitution () =
  let a = Dna.of_string "ACGT" and b = Dna.of_string "AGGT" in
  let al = Dna_align.global a b in
  check_float "one mismatch" 2.0 al.Pairwise.score

(* NW restricted to a band, under the default DNA scores. *)
let banded_dna ~band a b =
  let p = Dna_align.default in
  Pairwise.banded_global
    ~score:(fun i j ->
      if Dna.get a i = Dna.get b j then p.Dna_align.match_score else p.Dna_align.mismatch)
    ~gap:p.Dna_align.gap ~band ~la:(Dna.length a) ~lb:(Dna.length b)

let test_banded_equals_global_for_wide_band_qcheck =
  QCheck.Test.make ~name:"banded = full NW when band is wide" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 30))
    (fun (la, lb) ->
      let rng = Fsa_util.Rng.create (la + (lb * 100)) in
      let a = Dna.random rng la and b = Dna.random rng lb in
      let full = Dna_align.global a b in
      let banded = banded_dna ~band:(la + lb) a b in
      Float.abs (full.Pairwise.score -. banded.Pairwise.score) < 1e-9)

let test_banded_narrow_band_similar_sequences () =
  let rng = Fsa_util.Rng.create 33 in
  let a = Dna.random rng 200 in
  let b = Dna.point_mutate rng ~rate:0.05 a in
  let full = Dna_align.global a b in
  let banded = banded_dna ~band:8 a b in
  check_float "narrow band exact on similar" full.Pairwise.score banded.Pairwise.score

(* ------------------------------------------------------------------ *)
(* Adaptive banded = full NW, bit for bit.  The certificate in
   Pairwise.adaptive_global promises score- AND ops-identical alignments;
   exercise the certified-accept, widening, and cap-fallback branches. *)

(* Pairs with planted diagonal drift: a mutated copy with random indels so
   narrow bands genuinely fail and the widening loop has work to do. *)
let drifted_pair seed =
  let rng = Fsa_util.Rng.create seed in
  let la = 1 + Fsa_util.Rng.int rng 120 in
  let a = Dna.random rng la in
  match Fsa_util.Rng.int rng 3 with
  | 0 -> (a, Dna.random rng (1 + Fsa_util.Rng.int rng 120))
  | 1 -> (a, Dna.point_mutate rng ~rate:0.1 a)
  | _ ->
      (* Cut-and-splice: delete a chunk and insert random bases elsewhere. *)
      let cut_lo = Fsa_util.Rng.int rng la in
      let cut_len = Fsa_util.Rng.int rng (la - cut_lo + 1) in
      let ins = Dna.random rng (Fsa_util.Rng.int rng 40) in
      let b =
        Dna.concat
          [
            Dna.sub a ~pos:0 ~len:cut_lo;
            ins;
            Dna.sub a ~pos:(cut_lo + cut_len) ~len:(la - cut_lo - cut_len);
          ]
      in
      (a, Dna.point_mutate rng ~rate:0.05 b)

let adaptive_matches_full ?band ?band_cap seed =
  let a, b = drifted_pair seed in
  if Dna.length b = 0 then true
  else
    let full = Dna_align.global a b in
    let ad = Dna_align.adaptive_global ?band ?band_cap a b in
    Int64.bits_of_float full.Pairwise.score
    = Int64.bits_of_float ad.Pairwise.result.Pairwise.score
    && full.Pairwise.ops = ad.Pairwise.result.Pairwise.ops

let test_adaptive_identical_qcheck =
  QCheck.Test.make ~name:"adaptive banded = full NW (score and ops)" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed -> adaptive_matches_full seed)

let test_adaptive_identical_tiny_band_qcheck =
  QCheck.Test.make ~name:"adaptive banded = full NW from band 1 (widening)"
    ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed -> adaptive_matches_full ~band:1 seed)

let test_adaptive_identical_tiny_cap_qcheck =
  QCheck.Test.make ~name:"adaptive banded = full NW with cap 2 (fallback)"
    ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed -> adaptive_matches_full ~band:1 ~band_cap:2 seed)

let test_adaptive_branches_covered () =
  (* Divergent pair, band 1: the certificate cannot hold, so the engine
     widens; with a tiny cap it must fall back to the full kernel. *)
  let rng = Fsa_util.Rng.create 91 in
  let a = Dna.random rng 200 and b = Dna.random rng 150 in
  let reg = Fsa_obs.Registry.create () in
  let widened, capped =
    Fsa_obs.Runtime.with_observation ~registry:reg (fun () ->
        let w = Dna_align.adaptive_global ~band:1 a b in
        let c = Dna_align.adaptive_global ~band:1 ~band_cap:4 a b in
        (w, c))
  in
  check_bool "widened at least once" true (widened.Pairwise.widenings > 0);
  check_bool "cap forces fallback" true capped.Pairwise.fell_back;
  check_bool "fallback reports full band" true
    (capped.Pairwise.band_used = 200);
  let c name =
    match Fsa_obs.Registry.counter_value reg name with Some v -> v | None -> 0.0
  in
  check_bool "band.widenings counted" true (c "band.widenings" > 0.0);
  check_bool "band.fallbacks counted" true (c "band.fallbacks" > 0.0)

let test_adaptive_similar_stays_narrow () =
  (* 5% point mutations, no indels: the certificate should accept long
     before the band covers the matrix. *)
  let rng = Fsa_util.Rng.create 92 in
  let a = Dna.random rng 400 in
  let b = Dna.point_mutate rng ~rate:0.05 a in
  let ad = Dna_align.adaptive_global a b in
  check_bool "no fallback" true (not ad.Pairwise.fell_back);
  check_bool "band stayed narrow" true (ad.Pairwise.band_used < 400);
  let full = Dna_align.global a b in
  check_float "score equal" full.Pairwise.score ad.Pairwise.result.Pairwise.score

(* ------------------------------------------------------------------ *)
(* Seed and extend                                                      *)

let test_xdrop_stops () =
  (* matches then a long run of mismatches: extension must stop early. *)
  let target = Dna.of_string ("ACGTA" ^ String.make 95 'A') in
  let query = Dna.of_string ("ACGTA" ^ String.make 95 'C') in
  let best, len =
    Seed.xdrop_extend ~x_drop:2.0 ~target ~query ~t_pos:0 ~q_pos:0 ~step:1 ()
  in
  check_float "best is the 5 matches" 5.0 best;
  check_int "length" 5 len;
  (* The same pair read leftwards from its last cells: mismatches only. *)
  let best, len =
    Seed.xdrop_extend ~x_drop:2.0 ~target ~query ~t_pos:99 ~q_pos:99 ~step:(-1) ()
  in
  check_float "leftwards best" 0.0 best;
  check_int "leftwards length" 0 len

let test_xdrop_empty () =
  let target = Dna.of_string (String.make 10 'A') in
  let query = Dna.of_string (String.make 10 'C') in
  let best, len =
    Seed.xdrop_extend ~x_drop:1.5 ~target ~query ~t_pos:0 ~q_pos:0 ~step:1 ()
  in
  check_float "best" 0.0 best;
  check_int "len" 0 len;
  match Seed.xdrop_extend ~x_drop:1.5 ~target ~query ~t_pos:0 ~q_pos:0 ~step:2 () with
  | _ -> Alcotest.fail "step 2 accepted"
  | exception Invalid_argument _ -> ()

let test_hit_packing_guard () =
  (* Checked on the lengths alone: no 2 GiB sequence is built.  A target
     alone ([~query:0]) is how the index build checks its payload. *)
  List.iter
    (fun ((target, query), (target', query')) ->
      Seed.check_lengths ~target ~query;
      match Seed.check_lengths ~target:target' ~query:query' with
      | () -> Alcotest.fail "2^31 + 1 bases accepted"
      | exception Invalid_argument _ -> ())
    [
      ((1 lsl 30, 1 lsl 30), (1 lsl 30, (1 lsl 30) + 1));
      ((1 lsl 31, 0), ((1 lsl 31) + 1, 0));
    ]

let test_index_lookup () =
  let t = Dna.of_string "ACGTACGT" in
  let idx = Seed.build_index ~k:4 t in
  check_int "k" 4 (Seed.index_k idx);
  let kmer = Dna.pack_kmer t ~pos:0 ~k:4 in
  Alcotest.(check (array int)) "positions of ACGT" [| 0; 4 |] (Seed.lookup idx kmer)

let test_index_max_occ () =
  let t = Dna.of_string (String.concat "" (List.init 50 (fun _ -> "A"))) in
  let idx = Seed.build_index ~max_occ:8 ~k:4 t in
  let kmer = Dna.pack_kmer t ~pos:0 ~k:4 in
  check_int "repeat kmer dropped" 0 (Array.length (Seed.lookup idx kmer))

let test_anchor_forward () =
  let rng = Fsa_util.Rng.create 44 in
  let core = Dna.random rng 60 in
  let target = Dna.concat [ Dna.random rng 40; core; Dna.random rng 40 ] in
  let query = Dna.concat [ Dna.random rng 25; core; Dna.random rng 10 ] in
  let idx = Seed.build_index ~k:12 target in
  let anchors = Seed.anchors ~min_score:30.0 idx ~target ~query in
  check_bool "found" true (anchors <> []);
  let a = List.hd anchors in
  check_bool "forward" true a.Seed.forward;
  check_bool "covers the core in target" true (a.Seed.t_lo <= 45 && a.Seed.t_hi >= 90);
  check_bool "covers the core in query" true (a.Seed.q_lo <= 30 && a.Seed.q_hi >= 75)

let test_anchor_reverse_strand () =
  let rng = Fsa_util.Rng.create 45 in
  let core = Dna.random rng 60 in
  let target = Dna.concat [ Dna.random rng 30; core; Dna.random rng 30 ] in
  let query = Dna.concat [ Dna.random rng 20; Dna.reverse_complement core; Dna.random rng 20 ] in
  let idx = Seed.build_index ~k:12 target in
  let anchors = Seed.anchors ~min_score:30.0 idx ~target ~query in
  check_bool "found" true (anchors <> []);
  let a = List.hd anchors in
  check_bool "reverse strand" false a.Seed.forward;
  (* Query coordinates must be reported on the forward query. *)
  check_bool "q range inside query" true (a.Seed.q_lo >= 0 && a.Seed.q_hi < Dna.length query);
  check_bool "q range covers the planted copy" true (a.Seed.q_lo <= 25 && a.Seed.q_hi >= 75)

let test_anchor_with_mutations () =
  let rng = Fsa_util.Rng.create 46 in
  let core = Dna.random rng 100 in
  let target = Dna.concat [ Dna.random rng 50; core; Dna.random rng 50 ] in
  let mutated = Dna.point_mutate rng ~rate:0.04 core in
  let query = Dna.concat [ Dna.random rng 30; mutated; Dna.random rng 30 ] in
  let idx = Seed.build_index ~k:12 target in
  let anchors = Seed.anchors ~min_score:25.0 idx ~target ~query in
  check_bool "mutated homolog still found" true (anchors <> [])

let test_anchor_none_on_random () =
  let rng = Fsa_util.Rng.create 47 in
  let target = Dna.random rng 300 in
  let query = Dna.random rng 300 in
  let idx = Seed.build_index ~k:14 target in
  let anchors = Seed.anchors ~min_score:30.0 idx ~target ~query in
  check_bool "unrelated sequences give no strong anchors" true (List.length anchors = 0)

let test_filter_dominated () =
  let mk score (t_lo, t_hi) (q_lo, q_hi) =
    { Seed.t_lo; t_hi; q_lo; q_hi; forward = true; score }
  in
  let big = mk 50.0 (0, 100) (0, 100) in
  let inside = mk 10.0 (10, 20) (10, 20) in
  let outside = mk 10.0 (150, 160) (150, 160) in
  let kept = Seed.filter_dominated [ big; inside; outside ] in
  check_int "dominated dropped" 2 (List.length kept);
  check_bool "big kept" true (List.mem big kept);
  check_bool "outside kept" true (List.mem outside kept)

(* Reference for the sweep: the original quadratic fold, verbatim. *)
let filter_dominated_quadratic anchors =
  let contains (lo1, hi1) (lo2, hi2) = lo1 <= lo2 && hi2 <= hi1 in
  let keep kept (a : Seed.anchor) =
    let dominated =
      List.exists
        (fun (b : Seed.anchor) ->
          contains (b.t_lo, b.t_hi) (a.t_lo, a.t_hi)
          && contains (b.q_lo, b.q_hi) (a.q_lo, a.q_hi))
        kept
    in
    if dominated then kept else a :: kept
  in
  List.rev (List.fold_left keep [] anchors)

let random_anchor_set seed =
  (* Small coordinate universe so containment chains actually occur. *)
  let rng = Fsa_util.Rng.create seed in
  let n = Fsa_util.Rng.int rng 60 in
  List.init n (fun i ->
      let iv () =
        let lo = Fsa_util.Rng.int rng 40 in
        (lo, lo + Fsa_util.Rng.int rng 25)
      in
      let t_lo, t_hi = iv () and q_lo, q_hi = iv () in
      {
        Seed.t_lo;
        t_hi;
        q_lo;
        q_hi;
        forward = Fsa_util.Rng.int rng 2 = 0;
        score = float_of_int (100 - i);
      })

let test_filter_dominated_sweep_qcheck =
  QCheck.Test.make ~name:"filter_dominated sweep = quadratic reference"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let anchors = random_anchor_set seed in
      Seed.filter_dominated anchors = filter_dominated_quadratic anchors)

(* Reference model of the seed kernel: the Hashtbl index and the closure
   x-drop that the flat kernel replaced, verbatim except for telemetry.
   The flat kernel must agree with it exactly, floats included. *)
module Seed_reference = struct
  type index = { k : int; table : (int, int array) Hashtbl.t; max_occ : int }

  let build_index ?(max_occ = 32) ~k target =
    (* Two counting passes so occurrence lists land in flat int arrays with no
       intermediate list cells: count per k-mer, then fill in position order. *)
    let counts = Hashtbl.create 1024 in
    Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos:_ ~kmer ->
        let c = match Hashtbl.find_opt counts kmer with Some c -> c | None -> 0 in
        Hashtbl.replace counts kmer (c + 1));
    let table = Hashtbl.create (Hashtbl.length counts) in
    let fill = Hashtbl.create (Hashtbl.length counts) in
    Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos ~kmer ->
        (* Repeat k-mers seed quadratically many spurious diagonals: drop. *)
        if Hashtbl.find counts kmer <= max_occ then begin
          let occs =
            match Hashtbl.find_opt table kmer with
            | Some occs -> occs
            | None ->
                let occs = Array.make (Hashtbl.find counts kmer) 0 in
                Hashtbl.add table kmer occs;
                occs
          in
          let i =
            match Hashtbl.find_opt fill kmer with Some i -> i | None -> 0
          in
          occs.(i) <- pos;
          Hashtbl.replace fill kmer (i + 1)
        end);
    { k; table; max_occ }

  let empty_occs : int array = [||]

  let lookup idx kmer =
    match Hashtbl.find_opt idx.table kmer with
    | Some occs -> occs
    | None -> empty_occs

  let xdrop_extend ~score ~x_drop ~la ~lb ~a_start ~b_start =
    let rec go k running best best_len =
      let i = a_start + k and j = b_start + k in
      if i >= la || j >= lb then (best, best_len)
      else
        let running = running +. score i j in
        if running < best -. x_drop then (best, best_len)
        else if running > best then go (k + 1) running running (k + 1)
        else go (k + 1) running best best_len
    in
    go 0 0.0 0.0 0

  let strand_runs ~max_gap ~x_drop ~min_score idx ~target ~q =
    let k = idx.k in
    let ql = Dna.length q in
    let buf = ref (Array.make 256 0) and len = ref 0 in
    Dna.fold_kmers ~k q ~init:() ~f:(fun () ~pos ~kmer ->
        let occs = lookup idx kmer in
        for i = 0 to Array.length occs - 1 do
          let cap = Array.length !buf in
          if !len = cap then begin
            let bigger = Array.make (2 * cap) 0 in
            Array.blit !buf 0 bigger 0 cap;
            buf := bigger
          end;
          !buf.(!len) <- ((occs.(i) - pos + ql) lsl 31) lor pos;
          incr len
        done);
    let hits = Array.sub !buf 0 !len in
    Array.sort Int.compare hits;
    (* Merge hits on a common diagonal whose starts are within k + max_gap. *)
    let runs = ref [] in
    let cur_d = ref 0 and cur_j0 = ref 0 and cur_j1 = ref 0 in
    let have = ref false in
    let flush () = if !have then runs := (!cur_d, !cur_j0, !cur_j1) :: !runs in
    for i = 0 to Array.length hits - 1 do
      let key = hits.(i) in
      let d = (key asr 31) - ql and j = key land 0x7FFF_FFFF in
      if !have && !cur_d = d && j <= !cur_j1 + k + max_gap then begin
        if j > !cur_j1 then cur_j1 := j
      end
      else begin
        flush ();
        have := true;
        cur_d := d;
        cur_j0 := j;
        cur_j1 := j
      end
    done;
    flush ();
    let tl = Dna.length target in
    let pair_score i j =
      if Dna.get target i = Dna.get q j then Dna_align.default.match_score
      else Dna_align.default.mismatch
    in
    let extend (d, j0, j1) =
      (* The run covers query [j0, j1 + k - 1] on diagonal d.  Extend right
         from the run end and left from the run start. *)
      let q_end = j1 + k in
      let right_score, right_len =
        xdrop_extend ~score:pair_score ~x_drop ~la:tl ~lb:ql
          ~a_start:(q_end + d) ~b_start:q_end
      in
      (* Left extension = right extension on reversed coordinates. *)
      let rev_score i j = pair_score (j0 + d - 1 - i) (j0 - 1 - j) in
      let left_score, left_len =
        if j0 = 0 || j0 + d = 0 then (0.0, 0)
        else
          xdrop_extend ~score:rev_score ~x_drop ~la:(min (j0 + d) tl)
            ~lb:j0 ~a_start:0 ~b_start:0
      in
      let core_lo = j0 and core_hi = q_end - 1 in
      let q_lo = core_lo - left_len and q_hi = core_hi + right_len in
      let core_score = ref 0.0 in
      for j = core_lo to core_hi do
        core_score := !core_score +. pair_score (j + d) j
      done;
      let score = !core_score +. left_score +. right_score in
      (d, q_lo, q_hi, score)
    in
    List.filter_map
      (fun run ->
        let d, q_lo, q_hi, score = extend run in
        if score >= min_score then Some (d, q_lo, q_hi, score) else None)
      !runs

  let anchors ?(max_gap = 4) ?(x_drop = 10.0) ?(min_score = 20.0) idx ~target ~query =
    let fwd =
      strand_runs ~max_gap ~x_drop ~min_score idx ~target ~q:query
      |> List.map (fun (d, q_lo, q_hi, score) ->
             { Seed.t_lo = q_lo + d; t_hi = q_hi + d; q_lo; q_hi; forward = true; score })
    in
    let qrc = Dna.reverse_complement query in
    let ql = Dna.length query in
    let rev =
      strand_runs ~max_gap ~x_drop ~min_score idx ~target ~q:qrc
      |> List.map (fun (d, q_lo, q_hi, score) ->
             {
               Seed.t_lo = q_lo + d;
               t_hi = q_hi + d;
               q_lo = ql - 1 - q_hi;
               q_hi = ql - 1 - q_lo;
               forward = false;
               score;
             })
    in
    List.sort (fun (a : Seed.anchor) b -> compare b.score a.score) (fwd @ rev)
end

(* A run over one or two bases (poly-A, say, or an AC mix) with sparse
   substitutions: its k-mers share long key prefixes, so they crowd a few
   directory buckets and bitmap bytes of the index. *)
let low_complexity rng n =
  let letters = Dna.random rng (1 + Fsa_util.Rng.int rng 2) in
  let run =
    Dna.of_string
      (String.init n (fun _ ->
           Dna.get letters (Fsa_util.Rng.int rng (Dna.length letters))))
  in
  Dna.point_mutate rng ~rate:0.02 run

(* [dna] cut or padded with random bases to hold [count] k-mers. *)
let with_kmer_count rng ~k count dna =
  let len = count + k - 1 and n = Dna.length dna in
  if len <= n then Dna.sub dna ~pos:0 ~len
  else Dna.concat [ dna; Dna.random rng (len - n) ]

(* For a quarter of the queries, a poly-T run: its k-mers are the largest
   keys there are, above every key of an index without one. *)
let poly_t_tail rng ~k =
  if Fsa_util.Rng.int rng 4 = 0 then
    [ Dna.of_string (String.make (k + Fsa_util.Rng.int rng 40) 'T') ]
  else []

(* A k-mer count just below, at or just above a power of two: the index
   derives its directory and bitmap widths from the bit length of its
   entry count, so these sizes flip them. *)
let near_power_of_two rng = (1 lsl (2 + Fsa_util.Rng.int rng 9)) - 1 + Fsa_util.Rng.int rng 3

(* One seed-kernel case: k, index and extension knobs, and a target/query
   pair mixing uniform DNA, low-complexity tandem repeats (a 1–6 bp unit, so
   k-mers exceed max_occ and cluster in the table), one- and two-letter
   runs, and mutated copies of target stretches, some reverse-complemented.
   A quarter of the targets are cut to a k-mer count near a power of two,
   and a quarter of the queries end in a poly-T run. *)
let seed_kernel_case seed =
  let rng = Fsa_util.Rng.create seed in
  let pick xs = Fsa_util.Rng.choose rng (Array.of_list xs) in
  let k = pick [ 1; 2; 4; 8; 12; 16; 30 ] in
  let tandem n =
    let u = Dna.random rng (1 + Fsa_util.Rng.int rng 6) in
    let copies = (n / Dna.length u) + 1 in
    Dna.sub (Dna.concat (List.init copies (fun _ -> u))) ~pos:0 ~len:n
  in
  let piece () =
    let n = Fsa_util.Rng.int rng 300 in
    match Fsa_util.Rng.int rng 4 with
    | 0 -> tandem n
    | 1 -> low_complexity rng n
    | _ -> Dna.random rng n
  in
  let target = Dna.concat (List.init (1 + Fsa_util.Rng.int rng 4) (fun _ -> piece ())) in
  let target =
    if Fsa_util.Rng.int rng 4 = 0 then with_kmer_count rng ~k (near_power_of_two rng) target
    else target
  in
  let copy () =
    let n = Dna.length target in
    if n = 0 then piece ()
    else begin
      let pos = Fsa_util.Rng.int rng n in
      let len = min (n - pos) (10 + Fsa_util.Rng.int rng 300) in
      let c =
        Dna.point_mutate rng ~rate:(pick [ 0.0; 0.03; 0.1 ]) (Dna.sub target ~pos ~len)
      in
      if Fsa_util.Rng.bool rng then Dna.reverse_complement c else c
    end
  in
  let query =
    Dna.concat
      (List.init (1 + Fsa_util.Rng.int rng 4) (fun _ ->
           if Fsa_util.Rng.bool rng then copy () else piece ())
      @ poly_t_tail rng ~k)
  in
  let max_occ = pick [ 1; 3; 32 ] and max_gap = pick [ 0; 4; 30 ] in
  let x_drop = pick [ 2.0; 10.0 ] and min_score = pick [ 6.0; 20.0 ] in
  (k, max_occ, max_gap, x_drop, min_score, target, query)

let test_seed_oracle_qcheck =
  QCheck.Test.make ~name:"seed kernel = Hashtbl reference" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let k, max_occ, max_gap, x_drop, min_score, target, query = seed_kernel_case seed in
      let idx = Seed.build_index ~max_occ ~k target in
      let ref_idx = Seed_reference.build_index ~max_occ ~k target in
      (* Every k-mer of either sequence, a few drawn at random, the
         largest k-mer, and ints past either end of the k-mer range. *)
      let rng = Fsa_util.Rng.create (seed + 1) in
      let kmers =
        [ min_int; -1; (1 lsl (2 * k)) - 1; 1 lsl (2 * k); (2 lsl (2 * k)) - 1; max_int ]
        @ List.init 20 (fun _ -> Fsa_util.Rng.int rng (1 lsl (2 * k)))
        @ List.concat_map
            (fun s ->
              Dna.fold_kmers ~k s ~init:[] ~f:(fun acc ~pos:_ ~kmer -> kmer :: acc))
            [ target; query ]
      in
      let lookups_agree =
        List.for_all
          (fun kmer -> Seed.lookup idx kmer = Seed_reference.lookup ref_idx kmer)
          kmers
      in
      let found = Seed.anchors ~max_gap ~x_drop ~min_score idx ~target ~query in
      let expected =
        Seed_reference.anchors ~max_gap ~x_drop ~min_score ref_idx ~target ~query
      in
      lookups_agree && found = expected
      && Seed.filter_dominated found = filter_dominated_quadratic expected)

(* One multi-target case: 0–6 targets and a query.  The targets take the
   roles below in a shuffled order, so a set of three or more holds an
   empty target, one shorter than k, and one whose tandem repeat puts its
   k-mers past max_occ; a fourth holds a short stretch of the same repeat,
   and the query a longer one, so the repeat's k-mers are kept in one
   target and dropped in another.  A fifth is a one- or two-letter run.
   A quarter of the sets gain a random target that brings their k-mer
   count to just below, at or just above a power of two, and a quarter of
   the queries end in a poly-T run.

   A twenty-fourth of the sets instead gain a random target that brings
   their count near a power of two from 2^13 to 2^17.  The index splits
   its sort on min(8, 2k, b - 10) key bits for b the count's bit length,
   so these cases split 3 to 8 bits wide where the others split 0 to 2,
   and short k-mers recur in such a target past max_occ across many
   parts.  That target leads the set, so [lookup] reads its entries, and
   the query copies a stretch of it. *)
let multi_target_case seed =
  let rng = Fsa_util.Rng.create seed in
  let pick xs = Fsa_util.Rng.choose rng (Array.of_list xs) in
  let k = pick [ 1; 2; 4; 8; 12; 16; 30 ] and max_occ = pick [ 1; 3; 32 ] in
  let min_score = pick [ 6.0; 20.0 ] in
  let u = Dna.random rng (1 + Fsa_util.Rng.int rng 6) in
  (* Each of the unit's phases occurs at least max_occ + 2 times. *)
  let repeat = Dna.concat (List.init (max_occ + k + 2) (fun _ -> u)) in
  let stretch len = Dna.sub repeat ~pos:0 ~len:(min len (Dna.length repeat)) in
  let random () = Dna.random rng (Fsa_util.Rng.int rng 300) in
  let short_stretch () = stretch (k + Fsa_util.Rng.int rng (Dna.length u)) in
  let roles =
    [|
      (fun () -> Dna.of_string "");
      (fun () -> Dna.random rng (Fsa_util.Rng.int rng k));
      (fun () -> Dna.concat [ random (); repeat; random () ]);
      (fun () -> Dna.concat [ random (); short_stretch (); random () ]);
      (fun () -> low_complexity rng (50 + Fsa_util.Rng.int rng 250));
      random;
    |]
  in
  let n = Fsa_util.Rng.int rng 7 in
  let targets = Array.init n (fun i -> roles.(min i 5) ()) in
  let total =
    Array.fold_left (fun c t -> c + max 0 (Dna.length t - k + 1)) 0 targets
  in
  (* A target that brings the count to p - 1, p or p + 1. *)
  let padding p =
    with_kmer_count rng ~k (p - 1 + Fsa_util.Rng.int rng 3 - total) (Dna.of_string "")
  in
  let wide, targets =
    match Fsa_util.Rng.int rng 24 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let p = ref 1 in
        while !p - 1 <= total do
          p := 2 * !p
        done;
        (None, Array.append targets [| padding !p |])
    | 6 -> (Some (padding (1 lsl (13 + Fsa_util.Rng.int rng 5))), targets)
    | _ -> (None, targets)
  in
  Fsa_util.Rng.shuffle rng targets;
  let targets =
    match wide with Some t -> Array.append [| t |] targets | None -> targets
  in
  let copy_of t =
    let len = Dna.length t in
    if len = 0 then random ()
    else begin
      let pos = Fsa_util.Rng.int rng len in
      let c =
        Dna.point_mutate rng ~rate:(pick [ 0.0; 0.03 ])
          (Dna.sub t ~pos ~len:(min (len - pos) (10 + Fsa_util.Rng.int rng 300)))
      in
      if Fsa_util.Rng.bool rng then Dna.reverse_complement c else c
    end
  in
  let copy () = if n = 0 then random () else copy_of (pick (Array.to_list targets)) in
  let query =
    Dna.concat
      ((stretch (Dna.length repeat / 2)
       :: Option.to_list (Option.map copy_of wide)
       @ List.init (1 + Fsa_util.Rng.int rng 4) (fun _ ->
              if Fsa_util.Rng.bool rng then copy () else random ()))
      @ poly_t_tail rng ~k)
  in
  (k, max_occ, min_score, targets, query)

(* Each target's anchors equal those of its own reference index, and
   [lookup] of every k-mer of the first target and of the query returns
   the reference's positions in that target. *)
let test_seed_multi_target_qcheck =
  QCheck.Test.make ~name:"multi-target scan = per-target Hashtbl reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let k, max_occ, min_score, targets, query = multi_target_case seed in
      let idx = Seed.index_targets ~max_occ ~k targets in
      let refs = Array.map (Seed_reference.build_index ~max_occ ~k) targets in
      let strands = Seed.scan ~min_score idx [| (query, true); (query, false) |] in
      let agrees t target =
        Seed.join_strands strands.(0).(t) strands.(1).(t)
        = Seed_reference.anchors ~min_score refs.(t) ~target ~query
      in
      let lookups_agree () =
        Array.length targets = 0
        || List.for_all
             (fun s ->
               Dna.fold_kmers ~k s ~init:true ~f:(fun ok ~pos:_ ~kmer ->
                   ok && Seed.lookup idx kmer = Seed_reference.lookup refs.(0) kmer))
             [ targets.(0); query ]
      in
      Array.for_all (fun s -> Array.length s = Array.length targets) strands
      && List.for_all Fun.id (List.mapi agrees (Array.to_list targets))
      && lookups_agree ())

let test_index_targets_lookup () =
  (* lookup reads the first target; the second target's copies of the
     k-mer do not count against the first's max_occ. *)
  let a = Dna.of_string "ACGTACGT" and b = Dna.of_string "ACGTTTACGTACGT" in
  let kmer = Dna.pack_kmer a ~pos:0 ~k:4 in
  let idx = Seed.index_targets ~max_occ:2 ~k:4 [| a; b |] in
  Alcotest.(check (array int)) "first target's positions" [| 0; 4 |]
    (Seed.lookup idx kmer);
  let idx = Seed.index_targets ~max_occ:2 ~k:4 [| b; a |] in
  check_int "three copies dropped in the first" 0 (Array.length (Seed.lookup idx kmer));
  match Seed.anchors idx ~target:a ~query:a with
  | _ -> Alcotest.fail "anchors accepted a two-target index"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Chaining and stitching                                               *)

(* A target/query pair sharing several mutated blocks, some reversed, so
   seeding yields anchors on both strands with chainable structure. *)
let homologous_pair seed =
  let rng = Fsa_util.Rng.create seed in
  let block () = Dna.random rng (60 + Fsa_util.Rng.int rng 80) in
  let blocks = List.init (2 + Fsa_util.Rng.int rng 3) (fun _ -> block ()) in
  let spacer () = Dna.random rng (Fsa_util.Rng.int rng 80) in
  let target =
    Dna.concat
      (List.concat_map (fun b -> [ spacer (); b ]) blocks @ [ spacer () ])
  in
  let mutate b =
    let b = Dna.point_mutate rng ~rate:0.04 b in
    if Fsa_util.Rng.int rng 4 = 0 then Dna.reverse_complement b else b
  in
  let query =
    Dna.concat
      (List.concat_map (fun b -> [ spacer (); mutate b ]) blocks @ [ spacer () ])
  in
  (target, query)

let anchors_of_pair ?(min_score = 20.0) (target, query) =
  let idx = Seed.build_index ~k:12 target in
  Seed.filter_dominated (Seed.anchors ~min_score idx ~target ~query)

let strand_q_key fwd (a : Seed.anchor) = if fwd then a.q_lo else -a.q_hi
let strand_q_key_hi fwd (a : Seed.anchor) = if fwd then a.q_hi else -a.q_lo

let chain_invariants ~max_gap (c : Chain.t) =
  let n = Array.length c.anchors in
  let ok = ref (n > 0) in
  Array.iter (fun (a : Seed.anchor) -> if a.forward <> c.forward then ok := false) c.anchors;
  for i = 1 to n - 1 do
    let p = c.anchors.(i - 1) and a = c.anchors.(i) in
    if not (p.t_lo < a.t_lo && p.t_hi < a.t_hi) then ok := false;
    if not (strand_q_key c.forward p < strand_q_key c.forward a) then ok := false;
    if not (strand_q_key_hi c.forward p < strand_q_key_hi c.forward a) then
      ok := false;
    if a.t_lo - p.t_hi - 1 > max_gap then ok := false;
    if strand_q_key c.forward a - strand_q_key_hi c.forward p - 1 > max_gap then
      ok := false
  done;
  Array.iter
    (fun (a : Seed.anchor) ->
      if a.t_lo < c.t_lo || a.t_hi > c.t_hi then ok := false;
      if a.q_lo < c.q_lo || a.q_hi > c.q_hi then ok := false)
    c.anchors;
  !ok

let test_chain_invariants_qcheck =
  QCheck.Test.make ~name:"chains are colinear, bounded, and partition anchors"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pair = homologous_pair seed in
      let anchors = anchors_of_pair pair in
      let max_gap = 300 in
      let cs = Chain.chains ~max_gap anchors in
      List.for_all (chain_invariants ~max_gap) cs
      && List.fold_left (fun n (c : Chain.t) -> n + Array.length c.anchors) 0 cs
         = List.length anchors)

let test_chain_stitch_kernels_agree_qcheck =
  QCheck.Test.make
    ~name:"stitch adaptive kernel = full kernel (score bit-identical)"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ((target, query) as pair) = homologous_pair seed in
      let cs = Chain.chains (anchors_of_pair pair) in
      List.for_all
        (fun c ->
          let a = Chain.stitch ~band:4 ~target ~query c in
          let f = Chain.stitch ~gap_kernel:`Full ~target ~query c in
          Int64.bits_of_float a.Chain.score = Int64.bits_of_float f.Chain.score)
        cs)

let test_chain_joins_blocks () =
  (* Two conserved blocks 40 bases apart on both sequences must land in one
     chain: the gap is far under max_gap and the blocks are colinear. *)
  let rng = Fsa_util.Rng.create 77 in
  let a = Dna.random rng 120 and b = Dna.random rng 120 in
  let target = Dna.concat [ Dna.random rng 50; a; Dna.random rng 40; b ] in
  let query =
    Dna.concat
      [
        Dna.random rng 30;
        Dna.point_mutate rng ~rate:0.03 a;
        Dna.random rng 40;
        Dna.point_mutate rng ~rate:0.03 b;
        Dna.random rng 30;
      ]
  in
  let cs = Chain.chains (anchors_of_pair (target, query)) in
  check_bool "some chain" true (cs <> []);
  let best = List.hd cs in
  check_bool "top chain spans both blocks" true
    (best.Chain.t_lo < 170 && best.Chain.t_hi >= 210);
  let stitched = Chain.stitch ~target ~query best in
  check_bool "stitched score strongly positive" true (stitched.Chain.score > 150.0)

let () =
  Alcotest.run "fsa_align"
    [
      ( "p_score",
        [
          qtest test_pscore_matches_spec_qcheck;
          qtest test_pscore_traceback_consistent_qcheck;
          qtest test_pscore_ops_cover_both_words_qcheck;
          qtest test_pscore_reversal_invariance_qcheck;
          qtest test_pscore_nonnegative_qcheck;
          Alcotest.test_case "crossing pairs" `Quick test_pscore_known_crossing;
          Alcotest.test_case "ms_full orientation" `Quick test_ms_full_orientation;
          qtest test_padded_pair_of_alignment_qcheck;
        ] );
      ( "dna_global_local",
        [
          Alcotest.test_case "identical" `Quick test_nw_identical;
          Alcotest.test_case "gap penalty" `Quick test_nw_gap_penalty;
          Alcotest.test_case "substitution" `Quick test_nw_substitution;
          qtest test_banded_equals_global_for_wide_band_qcheck;
          Alcotest.test_case "narrow band on similar" `Quick test_banded_narrow_band_similar_sequences;
          qtest test_adaptive_identical_qcheck;
          qtest test_adaptive_identical_tiny_band_qcheck;
          qtest test_adaptive_identical_tiny_cap_qcheck;
          Alcotest.test_case "adaptive branches covered" `Quick
            test_adaptive_branches_covered;
          Alcotest.test_case "adaptive similar stays narrow" `Quick
            test_adaptive_similar_stays_narrow;
        ] );
      ( "seed",
        [
          Alcotest.test_case "xdrop stops" `Quick test_xdrop_stops;
          Alcotest.test_case "xdrop empty" `Quick test_xdrop_empty;
          Alcotest.test_case "hit packing guard" `Quick test_hit_packing_guard;
          qtest test_seed_oracle_qcheck;
          qtest test_seed_multi_target_qcheck;
          Alcotest.test_case "multi-target lookup" `Quick test_index_targets_lookup;
          Alcotest.test_case "index lookup" `Quick test_index_lookup;
          Alcotest.test_case "repeat filtering" `Quick test_index_max_occ;
          Alcotest.test_case "forward anchor" `Quick test_anchor_forward;
          Alcotest.test_case "reverse anchor" `Quick test_anchor_reverse_strand;
          Alcotest.test_case "mutated anchor" `Quick test_anchor_with_mutations;
          Alcotest.test_case "no anchors on noise" `Quick test_anchor_none_on_random;
          Alcotest.test_case "dominated filtering" `Quick test_filter_dominated;
          qtest test_filter_dominated_sweep_qcheck;
        ] );
      ( "chain",
        [
          qtest test_chain_invariants_qcheck;
          qtest test_chain_stitch_kernels_agree_qcheck;
          Alcotest.test_case "chain joins blocks" `Quick test_chain_joins_blocks;
        ] );
    ]
