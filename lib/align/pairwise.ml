type op = Both of int * int | A_only of int | B_only of int
type alignment = { score : float; ops : op list }

let score_of_ops ~score ops =
  List.fold_left
    (fun acc -> function Both (i, j) -> acc +. score i j | A_only _ | B_only _ -> acc)
    0.0 ops

(* Dense DP matrices are stored row-major in a flat float array of
   (la+1)*(lb+1) cells; [idx] maps (i,j) with i elements of A and j of B
   consumed. *)

let max_weight_alignment ~score ~la ~lb =
  let w = lb + 1 in
  let idx i j = (i * w) + j in
  let dp = Array.make ((la + 1) * w) 0.0 in
  for i = 1 to la do
    for j = 1 to lb do
      let best = Float.max dp.(idx (i - 1) j) dp.(idx i (j - 1)) in
      let diag = dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1) in
      dp.(idx i j) <- Float.max best diag
    done
  done;
  (* Traceback, preferring the diagonal so pairs are kept when ties occur. *)
  let rec back i j acc =
    if i = 0 && j = 0 then acc
    else if i = 0 then back i (j - 1) (B_only (j - 1) :: acc)
    else if j = 0 then back (i - 1) j (A_only (i - 1) :: acc)
    else
      let v = dp.(idx i j) in
      if v = dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1) then
        back (i - 1) (j - 1) (Both (i - 1, j - 1) :: acc)
      else if v = dp.(idx (i - 1) j) then back (i - 1) j (A_only (i - 1) :: acc)
      else back i (j - 1) (B_only (j - 1) :: acc)
  in
  { score = dp.(idx la lb); ops = back la lb [] }

let max_weight_score ~score ~la ~lb =
  (* Two-row rolling variant for hot paths (MS evaluations inside the local
     search recompute scores constantly and never need the traceback).  The
     score closure is resolved into a flat row before each DP row so the
     inner loop is pure float-array traffic; [score] is pure, so the values
     are bit-identical. *)
  let prev = ref (Array.make (lb + 1) 0.0) in
  let cur = ref (Array.make (lb + 1) 0.0) in
  let srow = Array.make (max 1 lb) 0.0 in
  for i = 1 to la do
    for j = 0 to lb - 1 do
      srow.(j) <- score (i - 1) j
    done;
    let p = !prev and c = !cur in
    c.(0) <- 0.0;
    for j = 1 to lb do
      let best = Float.max p.(j) c.(j - 1) in
      let diag = p.(j - 1) +. srow.(j - 1) in
      c.(j) <- Float.max best diag
    done;
    prev := c;
    cur := p
  done;
  !prev.(lb)

let global ~score ~gap ~la ~lb =
  let w = lb + 1 in
  let idx i j = (i * w) + j in
  let dp = Array.make ((la + 1) * w) 0.0 in
  for i = 1 to la do
    dp.(idx i 0) <- -.(float_of_int i *. gap)
  done;
  for j = 1 to lb do
    dp.(idx 0 j) <- -.(float_of_int j *. gap)
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let diag = dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1) in
      let up = dp.(idx (i - 1) j) -. gap in
      let left = dp.(idx i (j - 1)) -. gap in
      dp.(idx i j) <- Float.max diag (Float.max up left)
    done
  done;
  let rec back i j acc =
    if i = 0 && j = 0 then acc
    else if i = 0 then back i (j - 1) (B_only (j - 1) :: acc)
    else if j = 0 then back (i - 1) j (A_only (i - 1) :: acc)
    else
      let v = dp.(idx i j) in
      if v = dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1) then
        back (i - 1) (j - 1) (Both (i - 1, j - 1) :: acc)
      else if v = dp.(idx (i - 1) j) -. gap then back (i - 1) j (A_only (i - 1) :: acc)
      else back i (j - 1) (B_only (j - 1) :: acc)
  in
  { score = dp.(idx la lb); ops = back la lb [] }

let neg_inf = Float.neg_infinity

let banded_global ~score ~gap ~band ~la ~lb =
  if band < 0 then invalid_arg "Pairwise.banded_global: negative band";
  let w = lb + 1 in
  let idx i j = (i * w) + j in
  let dp = Array.make ((la + 1) * w) neg_inf in
  let center i = if la = 0 then 0 else i * lb / la in
  let in_band i j = abs (j - center i) <= band in
  dp.(idx 0 0) <- 0.0;
  for j = 1 to min lb band do
    dp.(idx 0 j) <- -.(float_of_int j *. gap)
  done;
  for i = 1 to la do
    let jlo = max 0 (center i - band) and jhi = min lb (center i + band) in
    for j = jlo to jhi do
      if j = 0 then dp.(idx i 0) <- -.(float_of_int i *. gap)
      else begin
        let diag =
          if in_band (i - 1) (j - 1) then
            dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1)
          else neg_inf
        in
        let up = if in_band (i - 1) j then dp.(idx (i - 1) j) -. gap else neg_inf in
        let left = if j - 1 >= jlo then dp.(idx i (j - 1)) -. gap else neg_inf in
        dp.(idx i j) <- Float.max diag (Float.max up left)
      end
    done
  done;
  let rec back i j acc =
    if i = 0 && j = 0 then acc
    else if i = 0 then back i (j - 1) (B_only (j - 1) :: acc)
    else if j = 0 then back (i - 1) j (A_only (i - 1) :: acc)
    else
      let v = dp.(idx i j) in
      if
        in_band (i - 1) (j - 1)
        && v = dp.(idx (i - 1) (j - 1)) +. score (i - 1) (j - 1)
      then back (i - 1) (j - 1) (Both (i - 1, j - 1) :: acc)
      else if in_band (i - 1) j && v = dp.(idx (i - 1) j) -. gap then
        back (i - 1) j (A_only (i - 1) :: acc)
      else back i (j - 1) (B_only (j - 1) :: acc)
  in
  { score = dp.(idx la lb); ops = back la lb [] }

(* ------------------------------------------------------------------ *)
(* Adaptive banded global alignment.

   [banded_global] is exact only when the optimal path stays inside the
   band; callers had to guess a band and got silently wrong scores when
   they guessed low.  [adaptive_global] removes the guesswork: it runs the
   banded kernel and *certifies* the result against full NW before
   accepting it, doubling the band on certificate failure and falling back
   to the exact full kernel past a cap.  Returned alignments are therefore
   always score- and ops-identical to {!global} (fuzz-enforced in
   test_align).

   The certificate.  Write D = lb - la and let band b >= |D|.  The banded
   kernel's center line is c(i) = floor(i*lb/la), so any cell outside the
   band has |j - c(i)| >= b+1, hence |j - i*lb/la| > b (the floor shifts
   the real center by < 1).  For D >= 0 the real center offset
   i*D/la lies in [0, D], so an out-of-band cell's diagonal offset
   o = j - i satisfies o >= b+1 or o <= D-b-1; a global path visiting
   offset o uses at least |o| + |D - o| indel columns, which in either
   case (using b >= D) is at least 2*(b+1) - |D|.  D < 0 is symmetric.
   Every column pair scores at most max(0, s_max), and a path has at most
   min(la, lb) pairs, so any path that leaves the band scores at most

     outside_bound(b) = max(0, s_max) * min(la, lb)
                        - gap * (2*(b+1) - |D|).

   If the banded score S satisfies S > outside_bound(b) *strictly*, then
   every optimal path stays inside the band, so S equals the full-DP
   optimum.  Strictness also pins the traceback: on every cell of the
   full traceback the tested neighbor value is realized by the prefix of
   some optimal (hence in-band) path, so the banded DP holds the same
   value and the banded traceback makes the same diag/up/left choice in
   the same preference order.  The two tracebacks are equal column for
   column, not just in score.

   When the band grows to cover the whole matrix (b >= max(la, lb) >= lb
   covers every cell of every row), the banded recurrence *is* the full
   recurrence and no certificate is needed.  [s_max] must upper-bound
   [score i j] over the rectangle; [gap] must be non-negative. *)

type adaptive = {
  result : alignment;
  band_used : int;  (** band of the accepted run; the cap-exceeded fallback
                        and full-coverage runs report [max la lb] *)
  widenings : int;  (** number of band doublings before acceptance *)
  fell_back : bool;  (** true when the band cap forced the full kernel *)
}

let widenings_counter = Fsa_obs.Metric.Counter.make "band.widenings"
let fallbacks_counter = Fsa_obs.Metric.Counter.make "band.fallbacks"
let certified_counter = Fsa_obs.Metric.Counter.make "band.certified"

let adaptive_global ~score ~s_max ~gap ?(band = 16) ?(band_cap = 2048) ~la ~lb
    () =
  if gap < 0.0 then invalid_arg "Pairwise.adaptive_global: negative gap";
  if band < 1 then invalid_arg "Pairwise.adaptive_global: band < 1";
  let d = abs (lb - la) in
  let cover = max la lb in
  let outside_bound b =
    (Float.max 0.0 s_max *. float_of_int (min la lb))
    -. (gap *. float_of_int ((2 * (b + 1)) - d))
  in
  let rec go b widenings =
    if b >= cover then begin
      (* The band covers every cell: banded DP = full DP by construction
         (identical recurrence, identical traceback guards). *)
      let result = global ~score ~gap ~la ~lb in
      { result; band_used = cover; widenings; fell_back = false }
    end
    else if b > band_cap then begin
      Fsa_obs.Metric.Counter.incr fallbacks_counter;
      let result = global ~score ~gap ~la ~lb in
      { result; band_used = cover; widenings; fell_back = true }
    end
    else
      let result = banded_global ~score ~gap ~band:b ~la ~lb in
      if result.score > outside_bound b then begin
        Fsa_obs.Metric.Counter.incr certified_counter;
        { result; band_used = b; widenings; fell_back = false }
      end
      else begin
        Fsa_obs.Metric.Counter.incr widenings_counter;
        go (b * 2) (widenings + 1)
      end
  in
  go (max band d) 0
