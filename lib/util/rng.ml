(* SplitMix64.  State advances by the golden-ratio Weyl constant; output is
   the fmix64 finalizer applied to the new state.  [split] follows Steele et
   al.: the child is seeded from the parent's next output so the two streams
   are decorrelated.  The state lives in 8 bytes, not a mutable [int64]
   field, which would box a fresh int64 on every draw.  With [bits64]
   inlined into the draws, [int], [bool] and [bernoulli] allocate nothing,
   and [float] only the box of its result when another module calls it. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (bits64 t)

(* The top 62 bits of a draw, a non-negative native int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Uniform int in [0, bound) by rejection on the top 62 bits, avoiding the
   sign bit so all arithmetic stays in non-negative native ints. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    let v = ref (bits62 t) in
    while !v - (!v mod bound) + (bound - 1) < 0 do
      v := bits62 t
    done;
    !v mod bound
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L <> 0L

let bernoulli t p = float t 1.0 < p

let gaussian t =
  let rec draw () =
    let u = (2.0 *. float t 1.0) -. 1.0 in
    let v = (2.0 *. float t 1.0) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then draw () else u *. sqrt (-2.0 *. log s /. s)
  in
  draw ()

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1.0 -. float t 1.0) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  (* Floyd's algorithm: O(k) expected inserts into a small hash set. *)
  let seen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ()
  done;
  let out = Array.make k 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v () ->
      out.(!i) <- v;
      incr i)
    seen;
  Array.sort compare out;
  out

let weighted_index t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights must sum > 0";
  let x = float t total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
