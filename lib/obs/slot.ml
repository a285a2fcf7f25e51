(* The ambient domain-slot id, stamped onto every emitted event.

   This lives in its own tiny module (rather than Runtime) because Sink
   needs it to stamp events and Runtime depends on Sink — putting it in
   Runtime would be a dependency cycle.  The id is a *pool slot*, not
   [Domain.self ()]: slot assignment is static (slot 0 is the calling
   domain, slot s > 0 is pool worker s - 1), so stamped traces are
   deterministic across reruns while raw domain ids are not. *)

let slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let get () = Domain.DLS.get slot

let set s =
  if s < 0 then invalid_arg "Slot.set: negative slot id";
  Domain.DLS.set slot s
