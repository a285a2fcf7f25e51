open Fsa_seq

(* Open-addressing k-mer index on flat int arrays.  Slot [s] of a
   power-of-two table holds k-mer [keys.(s)], or [free].  A kept k-mer's
   occurrences are one slice of [occ]: its count at [occ.(start.(s))], then
   its target positions in increasing order.  A repeat past [max_occ] keeps
   its slot with [start.(s) = -1], so probes for it stop there and find
   nothing. *)
type index = {
  k : int;
  shift : int;  (** 63 - log2 (table size) *)
  keys : int array;
  start : int array;
  occ : int array;
}

let free = -1

(* Fibonacci hashing: the slot is the top bits of the product with an odd
   constant. *)
let hash kmer = kmer * 0x1E37_79B9_7F4A_7C15

(* The slot holding [kmer], or the free slot ending its probe sequence.
   The table is at most half full, so a free slot always exists. *)
let rec probe keys kmer s =
  let key = Array.unsafe_get keys s in
  if key = kmer || key = free then s
  else probe keys kmer ((s + 1) land (Array.length keys - 1))

let slot idx kmer = probe idx.keys kmer (hash kmer lsr idx.shift)

let build_index ?(max_occ = 32) ~k target =
  if k < 1 || k > 30 then invalid_arg "Seed.build_index: k out of [1,30]";
  let distinct = min (max 0 (Dna.length target - k + 1)) (1 lsl (2 * k)) in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * distinct do
    incr bits
  done;
  let size = 1 lsl !bits in
  let idx =
    {
      k;
      shift = 63 - !bits;
      keys = Array.make size free;
      start = Array.make size 0;
      occ = [||];
    }
  in
  (* Pass 1 counts each k-mer in [start]; the counts then become slice
     offsets, and pass 2 fills each slice in position order, using its
     count cell as the cursor. *)
  Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos:_ ~kmer ->
      let s = slot idx kmer in
      Array.unsafe_set idx.keys s kmer;
      Array.unsafe_set idx.start s (Array.unsafe_get idx.start s + 1));
  let total = ref 0 in
  for s = 0 to size - 1 do
    let c = idx.start.(s) in
    (* Repeat k-mers seed quadratically many spurious diagonals: drop. *)
    if c > max_occ then idx.start.(s) <- -1
    else if c > 0 then begin
      idx.start.(s) <- !total;
      total := !total + 1 + c
    end
  done;
  let occ = Array.make !total 0 in
  Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos ~kmer ->
      let st = Array.unsafe_get idx.start (slot idx kmer) in
      if st >= 0 then begin
        let c = occ.(st) + 1 in
        occ.(st) <- c;
        occ.(st + c) <- pos
      end);
  { idx with occ }

let index_k idx = idx.k

(* Offset of [kmer]'s slice in [idx.occ], or -1 when it has none. *)
let find idx kmer =
  let s = slot idx kmer in
  if kmer = free || Array.unsafe_get idx.keys s <> kmer then -1
  else Array.unsafe_get idx.start s

let lookup idx kmer =
  let st = find idx kmer in
  if st < 0 then [||] else Array.sub idx.occ (st + 1) idx.occ.(st)

type anchor = {
  t_lo : int;
  t_hi : int;
  q_lo : int;
  q_hi : int;
  forward : bool;
  score : float;
}

let runs_counter = Fsa_obs.Metric.Counter.make "seed.runs_extended"
let found_counter = Fsa_obs.Metric.Counter.make "seed.anchors_found"
let filtered_counter = Fsa_obs.Metric.Counter.make "seed.anchors_filtered"
let dominated_counter = Fsa_obs.Metric.Counter.make "seed.anchors_dominated"

let check_lengths ~target ~query =
  if target + query > 1 lsl 31 then
    invalid_arg
      (Printf.sprintf "Seed: target (%d) + query (%d) bases exceed 2^31" target query)

(* The running and best scores stay in unboxed float locals: a [~score]
   closure would box a float per cell. *)
let xdrop_extend ~x_drop ~target ~query ~t_pos ~q_pos ~step () =
  if step <> 1 && step <> -1 then invalid_arg "Seed.xdrop_extend: step must be 1 or -1";
  let tb = Dna.unsafe_bytes target and qb = Dna.unsafe_bytes query in
  let n =
    if step > 0 then min (Bytes.length tb - t_pos) (Bytes.length qb - q_pos)
    else min (t_pos + 1) (q_pos + 1)
  in
  let hit = Dna_align.default.match_score and miss = Dna_align.default.mismatch in
  let running = ref 0.0 and best = ref 0.0 and best_len = ref 0 and c = ref 0 in
  while !c < n do
    let off = step * !c in
    let same = Bytes.get tb (t_pos + off) = Bytes.get qb (q_pos + off) in
    running := !running +. if same then hit else miss;
    if !running < !best -. x_drop then c := n
    else begin
      incr c;
      if !running > !best then begin
        best := !running;
        best_len := !c
      end
    end
  done;
  (!best, !best_len)

(* One strand: seeds as (diagonal, query-pos) pairs, merged into runs along
   each diagonal, each run extended with x-drop.  Query coordinates here are
   in the possibly reverse-complemented sequence [q]; [anchor_of] converts.

   Hits are packed one per int — (diag + ql) in the bits above 31, query
   position in the low 31, which [check_lengths] guarantees fits — so
   collection is a growable int array and ordering by (diagonal, position)
   is a single monomorphic int sort.  Anchors come out in decreasing
   (diagonal, position) order, which [anchors]' stable score sort keeps
   among equal scores. *)
let strand_anchors ~max_gap ~x_drop ~min_score idx ~target ~q ~anchor_of =
  let k = idx.k in
  let ql = Dna.length q in
  let occ = idx.occ in
  let buf = ref (Array.make 256 0) and len = ref 0 in
  Dna.fold_kmers ~k q ~init:() ~f:(fun () ~pos ~kmer ->
      let st = find idx kmer in
      if st >= 0 then begin
        let c = occ.(st) in
        if !len + c > Array.length !buf then begin
          let bigger = Array.make (2 * (!len + c)) 0 in
          Array.blit !buf 0 bigger 0 !len;
          buf := bigger
        end;
        let b = !buf in
        for i = 1 to c do
          b.(!len) <- ((occ.(st + i) - pos + ql) lsl 31) lor pos;
          incr len
        done
      end);
  let hits = Array.sub !buf 0 !len in
  (* Merge sort, faster here than [Array.sort]'s heap sort; the keys are
     distinct, so both give the same order. *)
  Array.stable_sort Int.compare hits;
  let tb = Dna.unsafe_bytes target and qb = Dna.unsafe_bytes q in
  let hit = Dna_align.default.match_score and miss = Dna_align.default.mismatch in
  let nruns = ref 0 and found = ref [] in
  (* The run covers query [j0, j1 + k - 1] on diagonal d.  Extend right
     from the run end and left from the run start. *)
  let extend d j0 j1 =
    incr nruns;
    let q_end = j1 + k in
    let right_score, right_len =
      xdrop_extend ~x_drop ~target ~query:q ~t_pos:(q_end + d) ~q_pos:q_end ~step:1 ()
    in
    let left_score, left_len =
      xdrop_extend ~x_drop ~target ~query:q ~t_pos:(j0 + d - 1) ~q_pos:(j0 - 1)
        ~step:(-1) ()
    in
    let core_score = ref 0.0 in
    for j = j0 to q_end - 1 do
      let same = Bytes.get tb (j + d) = Bytes.get qb j in
      core_score := !core_score +. if same then hit else miss
    done;
    let score = !core_score +. left_score +. right_score in
    if score >= min_score then
      found := anchor_of d (j0 - left_len) (q_end - 1 + right_len) score :: !found
    else Fsa_obs.Metric.Counter.incr filtered_counter
  in
  (* Merge hits on a common diagonal whose starts are within k + max_gap. *)
  let cur_d = ref 0 and cur_j0 = ref 0 and cur_j1 = ref (-1) in
  for i = 0 to Array.length hits - 1 do
    let d = (hits.(i) asr 31) - ql and j = hits.(i) land 0x7FFF_FFFF in
    if !cur_j1 >= 0 && !cur_d = d && j <= !cur_j1 + k + max_gap then begin
      if j > !cur_j1 then cur_j1 := j
    end
    else begin
      if !cur_j1 >= 0 then extend !cur_d !cur_j0 !cur_j1;
      cur_d := d;
      cur_j0 := j;
      cur_j1 := j
    end
  done;
  if !cur_j1 >= 0 then extend !cur_d !cur_j0 !cur_j1;
  Fsa_obs.Metric.Counter.incr ~by:!nruns runs_counter;
  !found

let anchors ?(max_gap = 4) ?(x_drop = 10.0) ?(min_score = 20.0) idx ~target ~query =
  Fsa_obs.Span.with_ ~name:"seed.anchors" @@ fun () ->
  let ql = Dna.length query in
  check_lengths ~target:(Dna.length target) ~query:ql;
  let strand q ~anchor_of =
    strand_anchors ~max_gap ~x_drop ~min_score idx ~target ~q ~anchor_of
  in
  let fwd =
    strand query ~anchor_of:(fun d q_lo q_hi score ->
        { t_lo = q_lo + d; t_hi = q_hi + d; q_lo; q_hi; forward = true; score })
  in
  let rev =
    strand (Dna.reverse_complement query) ~anchor_of:(fun d q_lo q_hi score ->
        (* Positions in the reverse complement map back to forward-query
           coordinates by j ↦ ql - 1 - j, flipping the interval. *)
        {
          t_lo = q_lo + d;
          t_hi = q_hi + d;
          q_lo = ql - 1 - q_hi;
          q_hi = ql - 1 - q_lo;
          forward = false;
          score;
        })
  in
  let all = fwd @ rev in
  Fsa_obs.Metric.Counter.incr ~by:(List.length all) found_counter;
  List.sort (fun a b -> compare b.score a.score) all

let contains_range (lo1, hi1) (lo2, hi2) = lo1 <= lo2 && hi2 <= hi1

(* Sort-and-sweep domination filter, equivalent to the obvious quadratic
   fold ("keep each anchor unless an already kept — hence earlier in input
   order, hence at least as good — anchor covers it on both sequences").

   Equivalence: containment is transitive, so "dominated by some earlier
   input anchor" and "dominated by some kept anchor" coincide — if the
   dominator was itself dropped, whatever kept anchor dropped it also
   contains the current one and is earlier still.  Sweeping anchors by
   (t_lo asc, t_hi desc, input-pos asc) places every potential target-range
   dominator of [a] before [a]; the active list holds kept sweep-earlier
   anchors whose target interval still reaches the sweep line, and a
   dominator is any active entry with t_hi covering, query range covering,
   and an earlier input position.  Output preserves input order. *)
let filter_dominated anchors =
  let arr = Array.of_list anchors in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  let cmp i j =
    let a = arr.(i) and b = arr.(j) in
    if a.t_lo <> b.t_lo then Int.compare a.t_lo b.t_lo
    else if a.t_hi <> b.t_hi then Int.compare b.t_hi a.t_hi
    else Int.compare i j
  in
  Array.sort cmp order;
  let keep = Array.make n true in
  let active = ref [] in
  Array.iter
    (fun ai ->
      let a = arr.(ai) in
      active := List.filter (fun bi -> arr.(bi).t_hi >= a.t_lo) !active;
      let dominated =
        List.exists
          (fun bi ->
            let b = arr.(bi) in
            bi < ai && b.t_hi >= a.t_hi
            && contains_range (b.q_lo, b.q_hi) (a.q_lo, a.q_hi))
          !active
      in
      if dominated then begin
        keep.(ai) <- false;
        Fsa_obs.Metric.Counter.incr dominated_counter
      end
      else active := ai :: !active)
    order;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := arr.(i) :: !out
  done;
  !out
