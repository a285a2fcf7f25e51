open Fsa_seq

let reverse_word a =
  let n = Array.length a in
  Array.init n (fun i -> Symbol.reverse a.(n - 1 - i))

let score_fn sigma a b i j = Scoring.get sigma a.(i) b.(j)

let p_score sigma a b =
  Pairwise.max_weight_score ~score:(score_fn sigma a b) ~la:(Array.length a)
    ~lb:(Array.length b)

let p_alignment sigma a b =
  Pairwise.max_weight_alignment ~score:(score_fn sigma a b) ~la:(Array.length a)
    ~lb:(Array.length b)

let padded_pair_of_alignment a b (al : Pairwise.alignment) =
  let cols = List.length al.ops in
  let u = Array.make cols None and v = Array.make cols None in
  List.iteri
    (fun k op ->
      match (op : Pairwise.op) with
      | Both (i, j) ->
          u.(k) <- Some a.(i);
          v.(k) <- Some b.(j)
      | A_only i -> u.(k) <- Some a.(i)
      | B_only j -> v.(k) <- Some b.(j))
    al.ops;
  (u, v)

let ms_full sigma a b =
  let fwd = p_score sigma a b in
  let rev = p_score sigma a (reverse_word b) in
  if rev > fwd then (rev, true) else (fwd, false)

(* All-windows kernels: P_score(a, w[lo..hi]) for every window of [w] in
   O(|a|·|w|²) total instead of O(|a|·|w|³) for separate rescores.  The DP
   is run column-major (one column per window symbol, extended in place), so
   every cell is the same function of the same neighbor cells as in
   [Pairwise.max_weight_score] — including Float.max nesting — and the
   emitted scores are bit-identical to per-window [p_score] calls.  Cells
   are never NaN and never -0.0 (each is a Float.max against a +0.0-rooted
   cell), so evaluation order is the only float-identity concern. *)

(* Extend the column state by one window symbol whose σ row against [a] has
   been pre-resolved into [srow] (srow.(i) = σ(a.(i), y)): col.(i) goes from
   P(a[0..i-1], w') to P(a[0..i-1], w'y), reading the pre-update cells as
   the dp(·, j-1) column.  σ is pure, so pre-resolution changes nothing
   about the float values — it only lifts the closure call (and its hash or
   dense lookup) out of the O(|w|) windows that reuse the same symbol. *)
let extend_column srow la col =
  let diag = ref col.(0) in
  for i = 1 to la do
    let old_ci = col.(i) in
    let best = Float.max col.(i - 1) old_ci in
    let v = Float.max best (!diag +. srow.(i - 1)) in
    diag := old_ci;
    col.(i) <- v
  done

(* rows.(j).(i) = get a.(i) (orient w.(j)): one σ resolution per (row
   symbol, window symbol) pair, shared by every window containing j. *)
let resolve_rows ~get orient a w =
  Array.map
    (fun y ->
      let y = orient y in
      Array.map (fun x -> get x y) a)
    w

(* Shared fwd/rev driver.  Forward anchors [lo] and appends columns upward;
   the reversed orientation aligns (w[lo..hi])ᴿ = wᴿ(hi), …, wᴿ(lo), so it
   anchors [hi] and appends [lo] *downward* — the exact column order a
   per-window [p_score a (reverse_word …)] sees. *)
let all_windows rows la lw ~down =
  let out = Array.make (max 1 (lw * lw)) 0.0 in
  let col = Array.make (la + 1) 0.0 in
  for anchor = 0 to lw - 1 do
    Array.fill col 0 (la + 1) 0.0;
    if down then
      for lo = anchor downto 0 do
        extend_column rows.(lo) la col;
        out.((lo * lw) + anchor) <- col.(la)
      done
    else
      for hi = anchor to lw - 1 do
        extend_column rows.(hi) la col;
        out.((anchor * lw) + hi) <- col.(la)
      done
  done;
  out

let ms_windows_fwd ~get a w =
  all_windows
    (resolve_rows ~get Fun.id a w)
    (Array.length a) (Array.length w) ~down:false

let ms_windows_rev ~get a w =
  all_windows
    (resolve_rows ~get Symbol.reverse a w)
    (Array.length a) (Array.length w) ~down:true
