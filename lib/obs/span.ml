(* The nesting depth of the open spans, maintained whenever observation
   is on.  Domain-local: each domain tracks its own open spans, so
   parallel workers never interleave their depths (a worker's spans record
   into whatever registry that worker has installed — see
   Fsa_parallel.Pool). *)
type state = { mutable depth : int }

let state = Domain.DLS.new_key (fun () -> { depth = 0 })

let with_ ~name f =
  if not (Runtime.observing ()) then f ()
  else begin
    let st = Domain.DLS.get state in
    let d = st.depth in
    if Runtime.tracing () then Runtime.emit (Event.Span_begin { name; depth = d });
    st.depth <- d + 1;
    (* On OCaml 5.1 [Gc.quick_stat] reports major words only as of the last
       major slice, so a short span read 0 for a direct major allocation,
       and it costs microseconds; [Gc.counters] reads the live counts in
       tens of nanoseconds.  It is read outside [Gc.minor_words]' bracket,
       so its own tuple is not charged to the span. *)
    let _, _, j0 = Gc.counters () in
    let m0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let finish () =
      let t1 = Clock.now () in
      let m1 = Gc.minor_words () in
      let _, _, j1 = Gc.counters () in
      st.depth <- st.depth - 1;
      let elapsed_ns = (t1 -. t0) *. 1e9 in
      let minor_words = m1 -. m0 in
      let major_words = j1 -. j0 in
      (match Runtime.registry () with
      | Some r -> Registry.record_span r name ~elapsed_ns ~minor_words ~major_words
      | None -> ());
      if Runtime.tracing () then
        Runtime.emit
          (Event.Span_end { name; depth = d; elapsed_ns; minor_words; major_words })
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let phase name =
  if Runtime.tracing () then Runtime.emit (Event.Phase { name })

let current_depth () = (Domain.DLS.get state).depth
