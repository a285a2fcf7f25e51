(* The container has no monotonic-clock binding (mtime is not vendored and
   Unix lacks clock_gettime), so the observation clock is a monotonicized
   wall clock: reads never go backwards.  A backwards NTP step freezes the
   clock until real time catches up, which keeps every derived duration
   nonnegative — the property the trace consumers rely on. *)

(* Domain-local high-water mark: each domain monotonicizes its own reads,
   so concurrent domains never race on (or stall behind) a shared cell. *)
let last = Domain.DLS.new_key (fun () -> 0.0)

let now () =
  let t = Unix.gettimeofday () in
  if t > Domain.DLS.get last then Domain.DLS.set last t;
  Domain.DLS.get last
