(* Handles are just names; each operation is one domain-local read when
   telemetry is off, and a hashtable update on the current registry when
   on.  Handles therefore survive registry swaps.

   Operations read [Registry.current] directly rather than consulting
   [Runtime.observing] first: a registry being installed is exactly the
   condition under which a metric must record ([Runtime.refresh] keeps
   [observing] true whenever one is), and with both cells domain-local the
   extra pre-check would double the DLS lookups on the instrumented hot
   path for nothing. *)

module Counter = struct
  type t = string

  let make name = name
  let name t = t

  let add t by =
    match Registry.current () with
    | Some r -> Registry.incr_counter r t (float_of_int by)
    | None -> ()

  let incr t = add t 1
end

module Gauge = struct
  type t = string

  let make name = name
  let name t = t

  let set t v =
    match Registry.current () with
    | Some r -> Registry.set_gauge r t v
    | None -> ()
end

module Histogram = struct
  type t = string

  let make name = name
  let name t = t

  let observe t v =
    match Registry.current () with
    | Some r -> Registry.observe r t v
    | None -> ()

  let observe_int t v =
    match Registry.current () with
    | Some r -> Registry.observe r t (float_of_int v)
    | None -> ()
end
