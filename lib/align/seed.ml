open Fsa_seq

(* ------------------------------------------------------------------ *)
(* Radix kernel                                                         *)

(* Stable LSD radix sort of [keys.(lo) .. keys.(lo + n - 1)], non-negative
   keys below 2^bits, on 8-bit digits.  When [vals] is non-empty,
   [vals.(lo + i)] moves with its key.  [tk] and [tv] are scratch of at
   least [n] cells ([tv] unused when [vals] is empty), [counts] of at least
   256 × ⌈bits / 8⌉.  One read of the keys fills every digit's histogram,
   and a digit that all keys share costs no pass. *)
let radix_sort ~counts ~bits keys (vals : int array) ~lo ~n tk tv =
  let carry = Array.length vals > 0 in
  assert (
    lo + n <= Array.length keys
    && n <= Array.length tk
    && ((not carry) || (lo + n <= Array.length vals && n <= Array.length tv)));
  if n > 1 then begin
    let passes = (bits + 7) / 8 in
    Array.fill counts 0 (passes * 256) 0;
    for i = lo to lo + n - 1 do
      let key = Array.unsafe_get keys i in
      for p = 0 to passes - 1 do
        let c = (p lsl 8) lor ((key lsr (p lsl 3)) land 255) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
      done
    done;
    (* Each pass scatters [src] into [dst], then the two swap roles. *)
    let sk = ref keys and sv = ref vals and so = ref lo in
    let dk = ref tk and dv = ref tv and d_o = ref 0 in
    for p = 0 to passes - 1 do
      let base = p lsl 8 and shift = p lsl 3 in
      let src_k = !sk and src_o = !so in
      if counts.(base lor ((src_k.(src_o) lsr shift) land 255)) < n then begin
        let sum = ref !d_o in
        for c = base to base + 255 do
          let m = Array.unsafe_get counts c in
          Array.unsafe_set counts c !sum;
          sum := !sum + m
        done;
        let dst_k = !dk in
        if carry then begin
          let src_v = !sv and dst_v = !dv in
          for i = src_o to src_o + n - 1 do
            let key = Array.unsafe_get src_k i in
            let c = base lor ((key lsr shift) land 255) in
            let o = Array.unsafe_get counts c in
            Array.unsafe_set counts c (o + 1);
            Array.unsafe_set dst_k o key;
            Array.unsafe_set dst_v o (Array.unsafe_get src_v i)
          done
        end
        else
          for i = src_o to src_o + n - 1 do
            let key = Array.unsafe_get src_k i in
            let c = base lor ((key lsr shift) land 255) in
            let o = Array.unsafe_get counts c in
            Array.unsafe_set counts c (o + 1);
            Array.unsafe_set dst_k o key
          done;
        sk := dst_k;
        dk := src_k;
        let v = !sv in
        sv := !dv;
        dv := v;
        so := !d_o;
        d_o := src_o
      end
    done;
    (* An odd number of passes leaves the result in the scratch: copy it
       back by hand, as [Array.blit] would pass every int through the
       write barrier. *)
    if !sk != keys then begin
      let src_k = !sk and src_v = !sv and src_o = !so in
      for i = 0 to n - 1 do
        Array.unsafe_set keys (lo + i) (Array.unsafe_get src_k (src_o + i))
      done;
      if carry then
        for i = 0 to n - 1 do
          Array.unsafe_set vals (lo + i) (Array.unsafe_get src_v (src_o + i))
        done
    end
  end

(* ------------------------------------------------------------------ *)
(* Sorted k-mer index                                                   *)

(* Every kept k-mer occurrence of every target, sorted by k-mer: entry [e]
   is k-mer [keys.(e)] at payload [vals.(e)] = (target lsl 32) lor position,
   for [e < size].  Within a k-mer, payloads ascend, so entries run target
   by target, each in position order.  A (k-mer, target) pair occurring
   more than [max_occ] times has no entries.

   Two side tables answer a probe without touching most of the keys.  The
   directory holds, for each value p of a key's top bits
   ([key lsr dir_shift]), the first entry whose prefix is at least p, so a
   k-mer's entries lie in [dir.(p), dir.(p + 1)).  The presence bitmap has
   bit [key lsr present_shift] set iff some entry has that longer prefix:
   most absent k-mers stop at one bit test. *)
type index = {
  k : int;
  targets : Dna.t array;
  keys : int array;
  vals : int array;
  size : int;
  dir : int array;
  dir_shift : int;
  present : Bytes.t;
  present_shift : int;
}

let pos_mask = 0xFFFF_FFFF

let check_lengths ~target ~query =
  if target + query > 1 lsl 31 then
    invalid_arg
      (Printf.sprintf "Seed: target (%d) + query (%d) bases exceed 2^31" target query)

let rec bit_length x = if x = 0 then 0 else 1 + bit_length (x lsr 1)

(* The side tables of [size] sorted keys of [2k] bits: about one directory
   slot per 8–16 entries and 4–8 bitmap bits per entry, each prefix at
   most the whole key.  One pass over the keys fills both. *)
let side_tables ~k keys size =
  let key_bits = 2 * k and n_bits = bit_length size in
  let dir_bits = max 0 (min key_bits (n_bits - 4)) in
  let present_bits = min key_bits (n_bits + 2) in
  let dir_shift = key_bits - dir_bits and present_shift = key_bits - present_bits in
  let dir = Array.make ((1 lsl dir_bits) + 1) size in
  let present = Bytes.make (((1 lsl present_bits) + 7) / 8) '\000' in
  let p = ref 0 in
  for e = 0 to size - 1 do
    let key = keys.(e) in
    while !p <= key lsr dir_shift do
      dir.(!p) <- e;
      incr p
    done;
    let b = key lsr present_shift in
    let byte = Char.code (Bytes.get present (b lsr 3)) in
    Bytes.set present (b lsr 3) (Char.unsafe_chr (byte lor (1 lsl (b land 7))))
  done;
  (dir, dir_shift, present, present_shift)

let index_targets ?(max_occ = 32) ~k targets =
  if k < 1 || k > 30 then invalid_arg "Seed.index_targets: k out of [1,30]";
  Array.iter (fun t -> check_lengths ~target:(Dna.length t) ~query:0) targets;
  Fsa_obs.Span.with_ ~name:"seed.index" @@ fun () ->
  let total =
    Array.fold_left (fun n t -> n + max 0 (Dna.length t - k + 1)) 0 targets
  in
  (* Part p holds the entries whose keys' top [split] bits read p.  Parts
     average 2^9–2^10 entries until [split] reaches 8, so a part's keys,
     payloads and scratch (32 KB) stay in cache while its other [shift]
     bits are sorted.  Below 2^10 entries the index is one part: its arrays
     fit in cache whole, and each part costs its own histograms. *)
  let key_bits = 2 * k in
  let split = max 0 (min (min 8 key_bits) (bit_length total - 10)) in
  let shift = key_bits - split and parts = 1 lsl split in
  (* [start.(p)] is part p's first entry, [start.(parts)] = [total]. *)
  let start = Array.make (parts + 1) 0 in
  if split = 0 then start.(1) <- total
  else begin
    Array.iter
      (fun t ->
        Dna.fold_kmers ~k t ~init:() ~f:(fun () ~pos:_ ~kmer ->
            let p = (kmer lsr shift) + 1 in
            Array.unsafe_set start p (Array.unsafe_get start p + 1)))
      targets;
    for p = 1 to parts do
      start.(p) <- start.(p) + start.(p - 1)
    done
  end;
  let keys = Array.make total 0 and vals = Array.make total 0 in
  let fill = Array.sub start 0 parts in
  Array.iteri
    (fun ti t ->
      let tag = ti lsl 32 in
      Dna.fold_kmers ~k t ~init:() ~f:(fun () ~pos ~kmer ->
          let p = kmer lsr shift in
          let e = Array.unsafe_get fill p in
          Array.unsafe_set keys e kmer;
          Array.unsafe_set vals e (tag lor pos);
          Array.unsafe_set fill p (e + 1)))
    targets;
  let largest = ref 0 in
  for p = 0 to parts - 1 do
    largest := max !largest (start.(p + 1) - start.(p))
  done;
  let counts = Array.make (8 * 256) 0 in
  let tk = Array.make !largest 0 and tv = Array.make !largest 0 in
  let size = ref 0 in
  for p = 0 to parts - 1 do
    let lo = start.(p) and hi = start.(p + 1) in
    (* Filled target by target in position order, so the stable sort
       leaves each k-mer's payloads ascending. *)
    radix_sort ~counts ~bits:shift keys vals ~lo ~n:(hi - lo) tk tv;
    (* Repeat k-mers seed quadratically many spurious diagonals: drop each
       (k-mer, target) run longer than [max_occ], compacting toward the
       front.  A k-mer's runs lie in one part, and [size] never passes
       [lo], so no later part is overwritten. *)
    let i = ref lo in
    while !i < hi do
      let key = keys.(!i) and t = vals.(!i) lsr 32 in
      let j = ref (!i + 1) in
      while !j < hi && keys.(!j) = key && vals.(!j) lsr 32 = t do
        incr j
      done;
      if !j - !i <= max_occ then
        for e = !i to !j - 1 do
          keys.(!size) <- key;
          vals.(!size) <- vals.(e);
          incr size
        done;
      i := !j
    done
  done;
  let size = !size in
  let dir, dir_shift, present, present_shift = side_tables ~k keys size in
  { k; targets; keys; vals; size; dir; dir_shift; present; present_shift }

let build_index ?max_occ ~k target = index_targets ?max_occ ~k [| target |]
let index_k idx = idx.k

(* The first entry of k-mer [key] (a k-mer of [idx.k] bases), or -1 when
   the index holds none: a bitmap test, then a binary search of the key's
   directory bucket.  Its entries run on from there. *)
let probe idx key =
  let b = key lsr idx.present_shift in
  if Char.code (Bytes.unsafe_get idx.present (b lsr 3)) land (1 lsl (b land 7)) = 0
  then -1
  else begin
    let p = key lsr idx.dir_shift in
    let keys = idx.keys and stop = Array.unsafe_get idx.dir (p + 1) in
    let lo = ref (Array.unsafe_get idx.dir p) and hi = ref stop in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get keys mid < key then lo := mid + 1 else hi := mid
    done;
    if !lo < stop && Array.unsafe_get keys !lo = key then !lo else -1
  end

let lookup idx kmer =
  (* A logical shift also sends every negative int past the key range. *)
  let e0 = if kmer lsr (2 * idx.k) <> 0 then -1 else probe idx kmer in
  if e0 < 0 then [||]
  else begin
    let e = ref e0 in
    while !e < idx.size && idx.keys.(!e) = kmer && idx.vals.(!e) lsr 32 = 0 do
      incr e
    done;
    Array.init (!e - e0) (fun i -> idx.vals.(e0 + i) land pos_mask)
  end

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

(* Runs and anchors of one (target, strand) bucket: its hits sorted by
   (diagonal, position), merged into runs along each diagonal, each run
   extended with x-drop.  A hit is packed as (diag + ql) lsl [qbits] lor
   query position, [qbits] being the bit length of [ql]; [check_lengths]
   keeps that below 2^62.  Query coordinates here are in the scanned
   strand [q]; [anchor_of] converts.  Anchors come out in decreasing
   (diagonal, position) order, which [join_strands]' stable score sort keeps
   among equal scores. *)
let bucket_anchors ~max_gap ~x_drop ~min_score ~k ~target ~q ~qbits ~anchor_of hits
    ~lo ~n nruns =
  let ql = Dna.length q and qmask = (1 lsl qbits) - 1 in
  let tb = Dna.unsafe_bytes target and qb = Dna.unsafe_bytes q in
  let hit = Dna_align.default.match_score and miss = Dna_align.default.mismatch in
  let found = ref [] in
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
  for i = lo to lo + n - 1 do
    let key = hits.(i) in
    let d = (key lsr qbits) - ql and j = key land qmask in
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
  !found

(* Buffers of one scan, grown on demand and reused from strand to strand:
   the (query position, entry range) groups of the probes that hit, hit
   counts per target, the hits themselves and their radix scratch. *)
type scratch = {
  mutable groups : int array;
  mutable per_target : int array;
  mutable hits : int array;
  mutable tmp_k : int array;
  counts : int array;
}

let scratch () =
  {
    groups = [||];
    per_target = [||];
    hits = [||];
    tmp_k = [||];
    counts = Array.make (8 * 256) 0;
  }

(* [a], or a copy at least twice as long when it is shorter than [n]. *)
let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* One strand of [query] against every target of [idx] ([targets] are the
   index's targets): each of the strand's k-mers probes the index, the hits
   are bucketed per target, and each bucket is radix-sorted and turned into
   anchors.  Returns one anchor list per target. *)
let scan_strand sc ~max_gap ~x_drop ~min_score idx targets ~forward query =
  let k = idx.k and nt = Array.length targets in
  let q = if forward then query else Dna.reverse_complement query in
  let ql = Dna.length q in
  Array.iter
    (fun t -> if Dna.length t >= k then check_lengths ~target:(Dna.length t) ~query:ql)
    targets;
  let anchor_of d q_lo q_hi score =
    if forward then { t_lo = q_lo + d; t_hi = q_hi + d; q_lo; q_hi; forward; score }
    else
      (* Positions in the reverse complement map back to forward-query
         coordinates by j ↦ ql - 1 - j, flipping the interval. *)
      {
        t_lo = q_lo + d;
        t_hi = q_hi + d;
        q_lo = ql - 1 - q_hi;
        q_hi = ql - 1 - q_lo;
        forward;
        score;
      }
  in
  let out = Array.make nt [] and nruns = ref 0 in
  if ql >= k && idx.size > 0 then begin
    (* Each k-mer the index holds is a group: its query position and its
       entries [e0, e1); record it and count its hits per target. *)
    sc.per_target <- grow sc.per_target nt;
    let cnt = sc.per_target in
    Array.fill cnt 0 nt 0;
    let ik = idx.keys and iv = idx.vals and ngroups = ref 0 in
    let qb = Dna.unsafe_bytes q and mask = (1 lsl (2 * k)) - 1 and kmer = ref 0 in
    for i = 0 to ql - 1 do
      kmer := ((!kmer lsl 2) lor Dna.base_code (Bytes.unsafe_get qb i)) land mask;
      let kmer = !kmer and pos = i - k + 1 in
      let e0 = if pos >= 0 then probe idx kmer else -1 in
      if e0 >= 0 then begin
        let e1 = ref e0 in
        while !e1 < idx.size && Array.unsafe_get ik !e1 = kmer do
          let t = Array.unsafe_get iv !e1 lsr 32 in
          cnt.(t) <- cnt.(t) + 1;
          incr e1
        done;
        let g = 3 * !ngroups in
        if g + 3 > Array.length sc.groups then sc.groups <- grow sc.groups (g + 3);
        let groups = sc.groups in
        groups.(g) <- pos;
        groups.(g + 1) <- e0;
        groups.(g + 2) <- !e1;
        incr ngroups
      end
    done;
    (* Counts become bucket starts; filling moves each to its bucket's
       end. *)
    let total = ref 0 in
    for t = 0 to nt - 1 do
      let c = cnt.(t) in
      cnt.(t) <- !total;
      total := !total + c
    done;
    sc.hits <- grow sc.hits !total;
    sc.tmp_k <- grow sc.tmp_k !total;
    let hits = sc.hits and groups = sc.groups in
    let qbits = bit_length ql in
    for g = 0 to !ngroups - 1 do
      let jq = groups.(3 * g) in
      for e = groups.((3 * g) + 1) to groups.((3 * g) + 2) - 1 do
        let v = Array.unsafe_get iv e in
        let t = v lsr 32 and p = v land pos_mask in
        let c = cnt.(t) in
        hits.(c) <- ((p - jq + ql) lsl qbits) lor jq;
        cnt.(t) <- c + 1
      done
    done;
    (* Hits are distinct (diagonal, position) keys, so the sorted bucket
       does not depend on the order the probes filled it in. *)
    let lo = ref 0 in
    for t = 0 to nt - 1 do
      let n = cnt.(t) - !lo in
      if n > 0 then begin
        let target = targets.(t) in
        radix_sort ~counts:sc.counts
          ~bits:(qbits + bit_length (Dna.length target + ql))
          hits [||] ~lo:!lo ~n sc.tmp_k [||];
        out.(t) <-
          bucket_anchors ~max_gap ~x_drop ~min_score ~k ~target ~q ~qbits ~anchor_of
            hits ~lo:!lo ~n nruns
      end;
      lo := cnt.(t)
    done
  end;
  Fsa_obs.Metric.Counter.add runs_counter !nruns;
  out

(* [anchors]' defaults, which [scan] always runs at: one copy of each, so
   [join_strands] of a scan stays equal to [anchors] at its defaults. *)
let default_max_gap = 4
let default_x_drop = 10.0
let default_min_score = 20.0

let scan ?(min_score = default_min_score) idx strands =
  let sc = scratch () in
  Array.map
    (fun (query, forward) ->
      Fsa_obs.Span.with_ ~name:"seed.anchors" @@ fun () ->
      scan_strand sc ~max_gap:default_max_gap ~x_drop:default_x_drop ~min_score idx
        idx.targets ~forward query)
    strands

let join_strands fwd rev =
  let all = fwd @ rev in
  Fsa_obs.Metric.Counter.add found_counter (List.length all);
  List.sort (fun a b -> compare b.score a.score) all

let anchors ?(max_gap = default_max_gap) ?(x_drop = default_x_drop)
    ?(min_score = default_min_score) idx ~target ~query =
  Fsa_obs.Span.with_ ~name:"seed.anchors" @@ fun () ->
  if Array.length idx.targets <> 1 then
    invalid_arg "Seed.anchors: the index must hold exactly one target";
  check_lengths ~target:(Dna.length target) ~query:(Dna.length query);
  let sc = scratch () and targets = [| target |] in
  let strand forward =
    (scan_strand sc ~max_gap ~x_drop ~min_score idx targets ~forward query).(0)
  in
  let fwd = strand true in
  join_strands fwd (strand false)

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
