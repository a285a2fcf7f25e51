(* The ambient-but-swappable switchboard.  Everything is off by default:
   instrumentation sites guard on [active] (a single domain-local read) and
   build no events, so uninstrumented runs pay one branch per site.

   Every cell is domain-local: a sink or registry installed on one
   domain is invisible to every other, so a parallel worker can never write
   into the caller's trace stream or registry concurrently.  The domain
   pool (Fsa_parallel.Pool) gives each worker a scratch registry and a
   bounded buffer sink for the duration of a batch, and merges/replays
   both into the caller's after the join, in slot order. *)

let current_sink : Sink.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let active = Domain.DLS.new_key (fun () -> false)

let refresh () =
  Domain.DLS.set active
    (Option.is_some (Domain.DLS.get current_sink) || Option.is_some (Registry.current ()))

let set_sink s =
  Domain.DLS.set current_sink s;
  refresh ()

let set_registry r =
  Registry.install r;
  refresh ()

let sink () = Domain.DLS.get current_sink
let registry () = Registry.current ()
let observing () = Domain.DLS.get active
let tracing () = Option.is_some (Domain.DLS.get current_sink)

let emit ev =
  match Domain.DLS.get current_sink with Some s -> s.Sink.emit ev | None -> ()

let with_observation ?sink:s ?registry:r f =
  let old_sink = Domain.DLS.get current_sink
  and old_registry = Registry.current () in
  Domain.DLS.set current_sink s;
  Registry.install r;
  refresh ();
  let restore () =
    Domain.DLS.set current_sink old_sink;
    Registry.install old_registry;
    refresh ()
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e
