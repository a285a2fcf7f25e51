(* Every event is stamped once, at emission time, with a monotonic
   timestamp and the ambient domain slot ([Slot.get]).  Sinks consume
   the stamped form: that way a worker's buffered events keep their
   original emission time and slot when they are replayed into the
   caller's sink after a pool join, instead of being re-stamped at
   merge time. *)

type stamped = { s_ts : float; s_domain : int; s_event : Event.t }

type t = {
  emit : Event.t -> unit;
  emit_stamped : stamped -> unit;
  close : unit -> unit;
}

let stamp ev = { s_ts = Clock.now (); s_domain = Slot.get (); s_event = ev }

let make ~emit_stamped ~close =
  { emit = (fun ev -> emit_stamped (stamp ev)); emit_stamped; close }

let null = make ~emit_stamped:(fun _ -> ()) ~close:(fun () -> ())

(* Bumped from fsa-trace/1 (implicit: no header line) when the "domain"
   field was added.  Readers treat any line with a "schema" member as a
   header, so old readers would have choked — hence the version bump —
   while the new reader still accepts headerless v1 files and defaults
   domain to 0. *)
let trace_schema = "fsa-trace/2"

let jsonl path =
  let oc = open_out path in
  let buf = Buffer.create 512 in
  let t0 = Clock.now () in
  Buffer.clear buf;
  Json.to_buffer buf (Json.Obj [ ("schema", Json.String trace_schema) ]);
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  let emit_stamped s =
    Buffer.clear buf;
    (* Prefix every line with a relative monotonic timestamp and the
       emitting domain slot; Event.of_json ignores fields it does not
       know. *)
    let json =
      match Event.to_json s.s_event with
      | Json.Obj fields ->
          Json.Obj
            (("ts", Json.Float (s.s_ts -. t0))
            :: ("domain", Json.Int s.s_domain)
            :: fields)
      | other -> other
    in
    Json.to_buffer buf json;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf
  in
  make ~emit_stamped ~close:(fun () -> close_out oc)

let memory () =
  let events = ref [] in
  ( make
      ~emit_stamped:(fun s -> events := s.s_event :: !events)
      ~close:(fun () -> ()),
    fun () -> List.rev !events )

let default_buffer_capacity = 65536

let buffer ?(capacity = default_buffer_capacity) () =
  if capacity < 1 then invalid_arg "Sink.buffer: capacity must be positive";
  let events = ref [] in
  let count = ref 0 in
  let dropped = ref 0 in
  let emit_stamped s =
    if !count >= capacity then incr dropped
    else begin
      events := s :: !events;
      incr count
    end
  in
  ( make ~emit_stamped ~close:(fun () -> ()),
    (fun () -> List.rev !events),
    fun () -> !dropped )

let tee a b =
  make
    ~emit_stamped:(fun s ->
      a.emit_stamped s;
      b.emit_stamped s)
    ~close:(fun () ->
      a.close ();
      b.close ())
