(* Weight-bounded LRU cache: a Hashtbl for O(1) lookup plus an intrusive
   doubly-linked recency list.  Eviction walks from the LRU end until the
   total weight fits the budget again, but never evicts the entry being
   inserted — an entry heavier than the whole budget is still cached (and
   replaced by the next insertion), matching the "always memoize the
   current table" behavior callers rely on. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  weight : int;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  owner : int; (* Domain.id of the creating domain *)
  table : ('k, ('k, 'v) node) Hashtbl.t;
  weight_of : 'v -> int;
  on_evict : 'k -> 'v -> unit;
  mutable budget : int;
  mutable total : int;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
  mutable evictions : int;
}

exception Cross_domain_use of { owner : int; caller : int }

let () =
  Printexc.register_printer (function
    | Cross_domain_use { owner; caller } ->
        Some
          (Printf.sprintf
             "Lru.Cross_domain_use: cache owned by domain %d touched from \
              domain %d (caches are single-domain; see DESIGN.md §14)"
             owner caller)
    | _ -> None)

(* Even a promoting [find] rewires the intrusive recency list, so there is
   no read-only entry point: any cross-domain touch can corrupt the list or
   the Hashtbl.  Detect-and-fail on every operation rather than silently
   corrupting — the check is one domain-register read and one int compare,
   invisible next to the Hashtbl probe it guards. *)
let check_owner t =
  let caller = (Domain.self () :> int) in
  if caller <> t.owner then raise (Cross_domain_use { owner = t.owner; caller })

let create ?(budget = max_int) ?(on_evict = fun _ _ -> ()) ~weight () =
  if budget < 0 then invalid_arg "Lru.create: negative budget";
  {
    owner = (Domain.self () :> int);
    table = Hashtbl.create 64;
    weight_of = weight;
    on_evict;
    budget;
    total = 0;
    head = None;
    tail = None;
    evictions = 0;
  }

let length t = Hashtbl.length t.table
let total_weight t = t.total
let budget t = t.budget
let evictions t = t.evictions

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* A hit on the head needs neither the Hashtbl probe nor a relink:
   promoting the most recent entry changes nothing.  Keys compare as the
   Hashtbl compares them. *)
let find t key =
  check_owner t;
  match t.head with
  | Some n when compare n.key key = 0 -> Some n.value
  | Some _ | None -> (
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
          unlink t n;
          push_front t n;
          Some n.value)

let mem t key =
  check_owner t;
  Hashtbl.mem t.table key

let drop_node ?(evicted = false) t n =
  Hashtbl.remove t.table n.key;
  unlink t n;
  t.total <- t.total - n.weight;
  if evicted then begin
    t.evictions <- t.evictions + 1;
    t.on_evict n.key n.value
  end

let remove t key =
  check_owner t;
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n -> drop_node t n

(* Evict LRU-first until the budget holds, sparing [keep] (the entry being
   inserted) so an oversized insertion still lands in the cache. *)
let trim ?keep t =
  let spared n = match keep with Some k -> k == n | None -> false in
  let continue_ = ref true in
  while !continue_ && t.total > t.budget do
    match t.tail with
    | None -> continue_ := false
    | Some n when spared n -> continue_ := false
    | Some n -> drop_node ~evicted:true t n
  done

let add t key value =
  check_owner t;
  remove t key;
  let n = { key; value; weight = t.weight_of value; prev = None; next = None } in
  Hashtbl.add t.table key n;
  push_front t n;
  t.total <- t.total + n.weight;
  trim ~keep:n t

let set_budget t budget =
  check_owner t;
  if budget < 0 then invalid_arg "Lru.set_budget: negative budget";
  t.budget <- budget;
  trim t

let filter_out t pred =
  check_owner t;
  let doomed =
    Hashtbl.fold (fun k n acc -> if pred k then n :: acc else acc) t.table []
  in
  List.iter (fun n -> drop_node t n) doomed

let clear t =
  check_owner t;
  Hashtbl.reset t.table;
  t.total <- 0;
  t.head <- None;
  t.tail <- None

let fold f t init =
  check_owner t;
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.next
  in
  go init t.head
