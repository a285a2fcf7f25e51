(* Always-on post-mortem capture: a fixed-size ring of the last N
   stamped events.  Recording is a couple of array writes per event —
   cheap enough to leave installed for a whole run — and nothing is
   written to disk until something goes wrong (a budget trip, an
   uncaught solver exception) or a dump is requested.

   The ring is single-writer by construction: it is installed as (part
   of) the *caller's* sink, and pool workers buffer into their own
   sinks which are replayed on the caller after the join, so no
   synchronization is needed. *)

type t = {
  capacity : int;
  ring : Sink.stamped option array;
  mutable next : int;  (* total events recorded; next mod capacity = write pos *)
  mutable dumps : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; dumps = 0 }

let record t s =
  t.ring.(t.next mod t.capacity) <- Some s;
  t.next <- t.next + 1

let sink t = Sink.make ~emit_stamped:(record t) ~close:(fun () -> ())

let recorded t = t.next
let dropped t = if t.next > t.capacity then t.next - t.capacity else 0
let dumps t = t.dumps

(* Oldest retained first. *)
let events t =
  let n = min t.next t.capacity in
  let first = t.next - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some s -> s
      | None -> assert false)

let last_event t =
  if t.next = 0 then None else t.ring.((t.next - 1) mod t.capacity)

let note t name value =
  record t (Sink.stamp (Event.Note { name; value }))

let schema = "fsa-flight/1"

let dump ?(reason = "on_demand") t path =
  t.dumps <- t.dumps + 1;
  let evs = events t in
  (* Timestamps are relative to the oldest retained event, mirroring the
     relative "ts" of trace files, so dumps are readable standalone. *)
  let t0 = match evs with [] -> 0.0 | s :: _ -> s.Sink.s_ts in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 512 in
      let line json =
        Buffer.clear buf;
        Json.to_buffer buf json;
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf
      in
      line
        (Json.Obj
           [
             ("schema", Json.String schema);
             ("reason", Json.String reason);
             ("events", Json.Int (List.length evs));
             ("dropped", Json.Int (dropped t));
           ]);
      List.iter
        (fun (s : Sink.stamped) ->
          match Event.to_json s.s_event with
          | Json.Obj fields ->
              line
                (Json.Obj
                   (("ts", Json.Float (s.s_ts -. t0))
                   :: ("domain", Json.Int s.s_domain)
                   :: fields))
          | other -> line other)
        evs)

let dump_errors = Metric.Counter.make "flight.dump_errors"

let arm t ~path =
  Budget.on_trip (fun r ->
      (* Make "the last event matches the trip site" literal: the marker
         records the trip before the ring is flushed. *)
      note t ("flight.budget_trip." ^ Budget.reason_to_string r) 1.0;
      (* Trip hooks must not raise: an exception here would escape from
         inside [Budget.check] instead of the [Exceeded] that the budgeted
         entry points catch, so an unwritable path is counted instead. *)
      try dump ~reason:("budget_trip:" ^ Budget.reason_to_string r) t path
      with Sys_error _ -> Metric.Counter.incr dump_errors)

let disarm = Budget.remove_trip_hook
