(* A reusable domain pool with a deterministic fan-out/merge combinator.

   Work items are chunked by index: with [d] slots over [n] items, slot
   [s] owns the contiguous range [s*n/d, (s+1)*n/d).  Slot assignment is
   static — slot 0 runs on the calling domain, slot [s > 0] on worker
   [s - 1] — so which domain computes which items never depends on
   scheduling, and the caller merges slot results in index order.  Outputs
   are therefore bit-identical to the sequential run by construction:
   the sequential run is just the [d = 1] instance of the same code path.

   Observability: if the caller has a registry installed, each worker gets
   a fresh scratch registry for the duration of the batch; after the join
   the scratches are merged into the caller's registry in slot order (on
   the caller's domain — the merge itself never races).  Likewise, if the
   caller has a sink, each worker gets a bounded in-memory buffer sink
   (stamped with the worker's slot id) replayed into the caller's sink
   after the join in slot order.  The pool also records its own metrics
   per batch (fan-out and inline-fallback counters, per-slot busy time,
   busy skew, merge time) into the caller's registry; these are
   wall-clock derived and hence not part of the deterministic-counters
   contract.

   Budgets: the pool refuses to fan out while an ambient Budget is
   installed and runs the whole range inline instead.  Budgets are
   domain-local, so a fanned-out run would silently stop enforcing them;
   running inline keeps every budgeted entry point's trip points exactly
   as they were single-domain.

   Nesting: a fan-out inside a chunk (on any domain) runs inline.  One
   level of parallelism keeps the merge order — and the worker count —
   trivially deterministic. *)

let max_domains = 512

let parse_domains raw =
  match int_of_string_opt (String.trim raw) with
  | Some n when n >= 1 && n <= max_domains -> Ok n
  | Some n -> Error (Printf.sprintf "domain count %d out of range [1, %d]" n max_domains)
  | None -> Error (Printf.sprintf "not an integer: %S" raw)

(* Malformed knobs are rejected loudly (same policy as FSA_NO_PRUNE and
   Budget.create): a typo'd FSA_DOMAINS must not silently serialize a run
   that was meant to be parallel. *)
let default_domains =
  match Sys.getenv_opt "FSA_DOMAINS" with
  | None -> 1
  | Some raw -> (
      match parse_domains raw with
      | Ok n -> n
      | Error msg ->
          Printf.eprintf "fsa: warning: ignoring FSA_DOMAINS (%s); using 1\n%!" msg;
          1)

let requested = Atomic.make default_domains

let set_domains n =
  if n < 1 || n > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.set_domains: domain count %d out of range [1, %d]" n
         max_domains);
  Atomic.set requested n

let domains () = Atomic.get requested

let with_domains n f =
  let old = domains () in
  set_domains n;
  Fun.protect ~finally:(fun () -> Atomic.set requested old) f

(* ------------------------------------------------------------------ *)
(* Worker domains *)

(* One private mailbox per worker.  Slot [s > 0] of every batch is pushed
   to worker [s - 1]'s mailbox, so the slot → domain mapping is *static*
   across batches (the contract the mli documents): a repeat of an
   identical fan-out runs chunk [s] on the same domain, with the same
   domain-local state (Budget, ambient observation).  Workers live for the
   whole process (parked in [Condition.wait] between batches) and are
   joined by an at_exit hook so the runtime shuts down cleanly. *)
type worker = {
  jobs : (unit -> unit) Queue.t; (* under [wm] *)
  wm : Mutex.t;
  wcv : Condition.t;
  mutable quit : bool; (* under [wm] *)
  mutable domain : unit Domain.t option; (* caller-domain only *)
}

let lock = Mutex.create () (* guards [workers] / [worker_count] *)
let workers : worker list ref = ref [] (* newest first; caller-domain only *)
let worker_count = ref 0
let worker_slots : worker array ref = ref [||] (* index s-1 = worker for slot s *)

(* True on worker domains always, and on the calling domain for the extent
   of its slot-0 chunk: both mean "already inside a batch, run inline". *)
let inside = Domain.DLS.new_key (fun () -> false)

let worker_loop w () =
  Domain.DLS.set inside true;
  let next () =
    Mutex.lock w.wm;
    let rec wait () =
      if w.quit then begin
        Mutex.unlock w.wm;
        None
      end
      else
        match Queue.take_opt w.jobs with
        | Some job ->
            Mutex.unlock w.wm;
            Some job
        | None ->
            Condition.wait w.wcv w.wm;
            wait ()
    in
    wait ()
  in
  let rec go () =
    match next () with
    | None -> ()
    | Some job ->
        (* Jobs are wrapped by [fan_out] and never raise. *)
        job ();
        go ()
  in
  go ()

let push w job =
  Mutex.lock w.wm;
  Queue.add job w.jobs;
  Condition.signal w.wcv;
  Mutex.unlock w.wm

let stop () =
  Mutex.lock lock;
  let ws = !workers in
  workers := [];
  worker_count := 0;
  worker_slots := [||];
  Mutex.unlock lock;
  List.iter
    (fun w ->
      Mutex.lock w.wm;
      w.quit <- true;
      Condition.signal w.wcv;
      Mutex.unlock w.wm)
    ws;
  List.iter (fun w -> Option.iter Domain.join w.domain) ws

let exit_hook_registered = ref false

let ensure_workers n =
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit stop
  end;
  Mutex.lock lock;
  while !worker_count < n do
    let w =
      {
        jobs = Queue.create ();
        wm = Mutex.create ();
        wcv = Condition.create ();
        quit = false;
        domain = None;
      }
    in
    w.domain <- Some (Domain.spawn (worker_loop w));
    workers := w :: !workers;
    incr worker_count
  done;
  if Array.length !worker_slots <> !worker_count then
    (* Slot s-1 must always map to the same worker: oldest worker first,
       so growing the pool never reshuffles existing slots. *)
    worker_slots := Array.of_list (List.rev !workers);
  let slots = !worker_slots in
  Mutex.unlock lock;
  slots

(* ------------------------------------------------------------------ *)
(* Fan-out / merge *)

let chunk_bounds ~n ~slots s = (s * n / slots, (s + 1) * n / slots)

let sequential ~n ~chunk = [| chunk ~slot:0 ~lo:0 ~hi:n |]

(* Pool telemetry.  All of these land in the *caller's* registry after
   the join (on the caller's domain), except the inline counters, which
   record wherever the fallback happens.  Everything here is wall-clock
   derived (busy times, skew, merge time) or scheduling-shaped (event
   drops), so pool.* metrics are exempt from the "merged counters equal
   the sequential run" contract. *)
let m_fan_outs = Fsa_obs.Metric.Counter.make "pool.fan_outs"
let m_inline_nested = Fsa_obs.Metric.Counter.make "pool.inline.nested"
let m_inline_budget = Fsa_obs.Metric.Counter.make "pool.inline.budget"
let m_busy_ns = Fsa_obs.Metric.Counter.make "pool.busy_ns"
let m_merge_ns = Fsa_obs.Metric.Counter.make "pool.merge_ns"
let m_slot_busy = Fsa_obs.Metric.Histogram.make "pool.slot_busy_ns"
let m_skew = Fsa_obs.Metric.Gauge.make "pool.skew"
let m_dropped = Fsa_obs.Metric.Counter.make "pool.events_dropped"

let fan_out ~n ~chunk =
  if n <= 0 then [||]
  else
    let d = min (domains ()) n in
    if d <= 1 then sequential ~n ~chunk
    else if Domain.DLS.get inside then begin
      Fsa_obs.Metric.Counter.incr m_inline_nested;
      sequential ~n ~chunk
    end
    else if Fsa_obs.Budget.installed () then begin
      Fsa_obs.Metric.Counter.incr m_inline_budget;
      sequential ~n ~chunk
    end
    else begin
      let slot_workers = ensure_workers (d - 1) in
      Fsa_obs.Metric.Counter.incr m_fan_outs;
      let results = Array.make d None in
      let errors = Array.make d None in
      let busy = Array.make d 0.0 in
      (* Each slot writes only its own cell of [busy] (distinct indices
         of an unboxed float array), so no synchronization is needed. *)
      let caller_registry = Fsa_obs.Runtime.registry () in
      let caller_sink = Fsa_obs.Runtime.sink () in
      let scratches =
        match caller_registry with
        | Some _ -> Array.init (d - 1) (fun _ -> Fsa_obs.Registry.create ())
        | None -> [||]
      in
      let buffers =
        match caller_sink with
        | Some _ -> Array.init (d - 1) (fun _ -> Fsa_obs.Sink.buffer ())
        | None -> [||]
      in
      let batch_lock = Mutex.create () in
      let batch_done = Condition.create () in
      let pending = ref (d - 1) in
      let run_slot s =
        let lo, hi = chunk_bounds ~n ~slots:d s in
        let t0 = Fsa_obs.Clock.now () in
        (try results.(s) <- Some (chunk ~slot:s ~lo ~hi)
         with e -> errors.(s) <- Some (e, Printexc.get_raw_backtrace ()));
        busy.(s) <- Fsa_obs.Clock.now () -. t0
      in
      let worker_job s () =
        (* Install the batch's observation state on this worker domain:
           slot id (event stamps), buffer sink, scratch registry.  Torn
           down in reverse order; [run_slot] never raises, so the
           teardown always runs. *)
        Fsa_obs.Slot.set s;
        if Array.length buffers > 0 then begin
          let sink, _, _ = buffers.(s - 1) in
          Fsa_obs.Runtime.set_sink (Some sink)
        end;
        if Array.length scratches > 0 then
          Fsa_obs.Runtime.set_registry (Some scratches.(s - 1));
        run_slot s;
        if Array.length scratches > 0 then Fsa_obs.Runtime.set_registry None;
        if Array.length buffers > 0 then Fsa_obs.Runtime.set_sink None;
        Fsa_obs.Slot.set 0;
        Mutex.lock batch_lock;
        decr pending;
        if !pending = 0 then Condition.signal batch_done;
        Mutex.unlock batch_lock
      in
      for s = 1 to d - 1 do
        push slot_workers.(s - 1) (worker_job s)
      done;
      (* The caller runs slot 0 itself, with nested fan-outs inlined; it
         keeps its own sink and registry, so its events stay live. *)
      Domain.DLS.set inside true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside false)
        (fun () -> run_slot 0);
      Mutex.lock batch_lock;
      while !pending > 0 do
        Condition.wait batch_done batch_lock
      done;
      Mutex.unlock batch_lock;
      (* Land worker telemetry in slot order; merging on this domain means
         the caller's sink and registry are never touched
         concurrently.  Replayed events keep their original stamps, so
         the merged stream is "slot 1's events in order, then slot
         2's, ..." — deterministic for a deterministic workload. *)
      let merge_t0 = Fsa_obs.Clock.now () in
      (match caller_sink with
      | Some sink ->
          Array.iter
            (fun (_, drain, dropped) ->
              List.iter sink.Fsa_obs.Sink.emit_stamped (drain ());
              let dr = dropped () in
              if dr > 0 then Fsa_obs.Metric.Counter.add m_dropped dr)
            buffers
      | None -> ());
      (match caller_registry with
      | Some r -> Array.iter (fun s -> Fsa_obs.Registry.merge_into ~into:r s) scratches
      | None -> ());
      let merge_ns = (Fsa_obs.Clock.now () -. merge_t0) *. 1e9 in
      (* Pool metrics land in the caller's registry (the Metric calls
         are no-ops without one). *)
      (match caller_registry with
      | Some r ->
          Fsa_obs.Metric.Counter.add m_merge_ns (int_of_float merge_ns);
          let busy_total = ref 0.0 in
          let busy_min = ref infinity and busy_max = ref 0.0 in
          Array.iter
            (fun b ->
              busy_total := !busy_total +. b;
              if b < !busy_min then busy_min := b;
              if b > !busy_max then busy_max := b;
              Fsa_obs.Metric.Histogram.observe m_slot_busy (b *. 1e9))
            busy;
          Fsa_obs.Metric.Counter.add m_busy_ns (int_of_float (!busy_total *. 1e9));
          (* Chunk skew: slowest slot over fastest, this batch; the gauge
             keeps the worst ratio seen since the registry was reset. *)
          if !busy_min > 0.0 then begin
            let skew = !busy_max /. !busy_min in
            let prev =
              Option.value ~default:0.0
                (Fsa_obs.Registry.gauge_value r (Fsa_obs.Metric.Gauge.name m_skew))
            in
            if skew > prev then Fsa_obs.Metric.Gauge.set m_skew skew
          end
      | None -> ());
      (* Deterministic error propagation: the lowest slot's exception wins,
         mirroring which exception a sequential run would have raised
         first. *)
      Array.iteri
        (fun _ e ->
          match e with
          | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
          | None -> ())
        errors;
      Array.map
        (function Some v -> v | None -> assert false (* no result, no error *))
        results
    end
