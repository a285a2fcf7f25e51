type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let length i = i.hi - i.lo + 1
let overlaps a b = a.lo <= b.hi && b.lo <= a.hi
let disjoint a b = not (overlaps a b)
let contains outer inner = outer.lo <= inner.lo && inner.hi <= outer.hi
let touches a b = a.lo <= b.hi + 1 && b.lo <= a.hi + 1

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let compare_by_hi a b =
  let c = Int.compare a.hi b.hi in
  if c <> 0 then c else Int.compare a.lo b.lo

let compare a b =
  let c = Int.compare a.lo b.lo in
  if c <> 0 then c else Int.compare a.hi b.hi

let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf i = Format.fprintf ppf "[%d,%d]" i.lo i.hi
