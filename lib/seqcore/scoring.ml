(* A σ entry depends only on (h_region, m_region, a.rev xor b.rev): flipping
   both orientations simultaneously is a no-op by the σ(a,b) = σ(aᴿ,bᴿ)
   axiom.  We key the table on that canonical triple. *)

type key = { h_region : int; m_region : int; opposite : bool }

(* Flat-array view for inner-loop consumers: [get] allocates a key record
   and hashes it on every probe, which dominates the column kernels of the
   local search.  The dense view trades that for one bounds-checked array
   read.  Cells are indexed ((h_region * stride) + m_region) * 2 + opposite;
   region ids outside the stored range score 0 like any unset pair.  When
   the id range would need more than [max_cells] cells the view keeps
   probing the hashed table instead. *)
type dense = Cells of { stride : int; cells : float array } | Hashed of (key, float) Hashtbl.t

(* [view] memoizes the table's dense view; [set] drops it.  An atomic, so a
   table probed from two domains at once at worst builds the (identical)
   view twice. *)
type t = { table : (key, float) Hashtbl.t; view : dense option Atomic.t }

let create () = { table = Hashtbl.create 128; view = Atomic.make None }

let key_of a b =
  {
    h_region = Symbol.id a;
    m_region = Symbol.id b;
    opposite = Symbol.is_reversed a <> Symbol.is_reversed b;
  }

let set t a b v =
  Atomic.set t.view None;
  Hashtbl.replace t.table (key_of a b) v

let get t a b =
  match Hashtbl.find_opt t.table (key_of a b) with Some v -> v | None -> 0.0

let max_cells = 4_000_000

let build_dense t =
  let max_id =
    Hashtbl.fold
      (fun k _ acc -> max acc (max k.h_region k.m_region))
      t.table (-1)
  in
  let stride = max_id + 1 in
  if stride > 0 && 2 * stride * stride > max_cells then Hashed t.table
  else begin
    let cells = Array.make (max 1 (2 * stride * stride)) 0.0 in
    Hashtbl.iter
      (fun k v ->
        cells.(
          (((k.h_region * stride) + k.m_region) * 2)
          + if k.opposite then 1 else 0)
        <- v)
      t.table;
    Cells { stride; cells }
  end

let dense t =
  match Atomic.get t.view with
  | Some d -> d
  | None ->
      let d = build_dense t in
      Atomic.set t.view (Some d);
      d

(* [opposite] is the pair's relative orientation, [b] taken as given. *)
let dense_cell d a b opposite =
  match d with
  | Cells { stride; cells } ->
      let ha = a.Symbol.id and mb = b.Symbol.id in
      if ha >= stride || mb >= stride then 0.0
      else cells.((((ha * stride) + mb) * 2) + if opposite then 1 else 0)
  | Hashed table -> (
      match
        Hashtbl.find_opt table
          { h_region = a.Symbol.id; m_region = b.Symbol.id; opposite }
      with
      | Some v -> v
      | None -> 0.0)

let dense_get d a b = dense_cell d a b (a.Symbol.rev <> b.Symbol.rev)
let dense_get_rev d a b = dense_cell d a b (a.Symbol.rev = b.Symbol.rev)

let of_list entries =
  let t = create () in
  List.iter (fun (a, b, v) -> set t a b v) entries;
  t

let fold f t init = Hashtbl.fold (fun k v acc -> f k v acc) t.table init

let positive_pairs t =
  fold
    (fun k v acc ->
      if v > 0.0 then (k.h_region, k.m_region, k.opposite, v) :: acc else acc)
    t []

let entries t = fold (fun k v acc -> (k.h_region, k.m_region, k.opposite, v) :: acc) t []
let max_score t = fold (fun _ v acc -> Float.max v acc) t 0.0

let map_scores f t =
  let out = create () in
  Hashtbl.iter (fun k v -> Hashtbl.replace out.table k (f v)) t.table;
  out

let scale t factor = map_scores (fun v -> v *. factor) t

let truncate_to_multiples t unit_ =
  if not (unit_ > 0.0) then invalid_arg "Scoring.truncate_to_multiples: unit must be positive";
  map_scores
    (fun v ->
      (* A quotient past float range leaves v, its own multiple at float
         precision. *)
      let q = Float.floor (v /. unit_) in
      if Float.is_finite q then q *. unit_ else v)
    t

let random_bijective rng ~regions ~lo ~hi ~reversed_fraction =
  if lo > hi then invalid_arg "Scoring.random_bijective: lo > hi";
  let t = create () in
  for r = 0 to regions - 1 do
    let v = lo +. Fsa_util.Rng.float rng (hi -. lo) in
    let b =
      if Fsa_util.Rng.bernoulli rng reversed_fraction then Symbol.reversed r
      else Symbol.make r
    in
    set t (Symbol.make r) b v
  done;
  t

let pp namer ppf t =
  let items =
    List.sort compare
      (fold (fun k v acc -> ((k.h_region, k.m_region, k.opposite), v) :: acc) t [])
  in
  let pp_item ppf (((h, m, opp), v)) =
    Format.fprintf ppf "σ(%s,%s%s)=%g" (namer h) (namer m) (if opp then "'" else "") v
  in
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp_item ppf items
