(* Cooperative resource budgets.

   A budget is ambient, like the Runtime sink/registry: solver hot loops
   call [check ()] at every probe site, which is one atomic read when
   nothing is installed.  With a budget installed, each check counts one
   probe and, every [poll_every] probes, polls the wall clock; the first
   limit crossed raises [Exceeded], which the budgeted solver entry points
   catch at their own boundary to return a typed partial result. *)

type reason = [ `Wall_clock | `Probes ]

let reason_to_string = function `Wall_clock -> "wall_clock" | `Probes -> "probes"

exception Exceeded of reason

type t = {
  deadline : float option;  (* absolute Clock.now () seconds *)
  max_probes : int option;
  mutable probes : int;
  mutable tripped : reason option;
}

(* The clock is read every [poll_every] probes, not on each: checkpoints
   sit in ~20ns/iter inner loops (TPA steps). *)
let poll_every = 32

let create ?wall_s ?probes () =
  (match probes with
  | Some p when p < 0 -> invalid_arg "Budget.create: negative probe budget"
  | _ -> ());
  (* A NaN wall budget would make [Clock.now () > deadline] always false —
     silently unlimited; reject it along with negative limits, like the
     probe knob above. *)
  (match wall_s with
  | Some s when Float.is_nan s || s < 0.0 ->
      invalid_arg "Budget.create: wall_s must be a non-negative number"
  | _ -> ());
  {
    deadline = Option.map (fun s -> Clock.now () +. s) wall_s;
    max_probes = probes;
    probes = 0;
    tripped = None;
  }

let probes t = t.probes
let exceeded t = t.tripped

(* ------------------------------------------------------------------ *)
(* The ambient budget *)

(* Domain-local: a budget installed in one domain can neither trip nor
   count probes from another.  A plain global ref here was a latent data
   race (worker checkpoints would race on [probes] and [tripped]) and a
   semantic leak (a worker's probes would drain the caller's budget);
   domain-local storage makes a worker's [check] a guaranteed no-op unless
   that worker installs its own budget.  The domain pool additionally
   refuses to fan out while a budget is installed, so budgeted solver runs
   keep their exact sequential trip points.

   The budget and the trip-hook list live in one domain-local record, so
   the [check] slow path pays a single [Domain.DLS.get]. *)
type state = {
  mutable budget : t option;
  mutable trip_hooks : (int * (reason -> unit)) list;
}

let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { budget = None; trip_hooks = [] })

let installed () = Option.is_some (Domain.DLS.get state).budget

(* Live budget installs, summed over all domains.  While this is zero —
   the overwhelmingly common case, since budgets bracket explicit runs —
   [check] is a single atomic load and a branch, cheaper than even a DLS
   lookup; checkpoints sit in ~20ns/iter inner loops (TPA steps), where
   that difference is a measurable fraction of the whole iteration.
   Nonzero only says "some domain might have a budget": other domains
   then take the DLS slow path and fall through on their own empty
   state, which costs them a lookup but never a behavior change. *)
let active = Atomic.make 0

let exceeded_counter = Metric.Counter.make "budget.exceeded"

(* Trip hooks fire exactly once per budget: [spend]'s sticky path returns
   before reaching here, so a budget that already tripped never re-fires
   them.  They run inside the checkpoint, at the trip site, before
   [Exceeded] propagates — which is what lets the flight recorder dump a
   ring whose last event is the trip itself.  Hooks must not raise. *)
let trip st b r =
  b.tripped <- Some r;
  Metric.Counter.incr exceeded_counter;
  Metric.Counter.incr (Metric.Counter.make ("budget.exceeded." ^ reason_to_string r));
  List.iter (fun (_, f) -> f r) (List.rev st.trip_hooks);
  b.tripped

(* The crossed limit, or [None] while within budget.  Kept raise-free so
   [check] needs no exception handler on the hot path.  Sticky: once over,
   every later checkpoint reports the same reason without counting work, so
   a multi-stage solver that caught a partial in one stage falls through
   its remaining stages for free. *)
let spend st b =
  match b.tripped with
  | Some _ as r -> r
  | None ->
      b.probes <- b.probes + 1;
      let over_probes =
        match b.max_probes with Some m -> b.probes > m | None -> false
      in
      if over_probes then trip st b `Probes
      else if b.probes = 1 || b.probes mod poll_every = 0 then
        match b.deadline with
        | Some d when Clock.now () > d -> trip st b `Wall_clock
        | _ -> None
      else None

(* Trip hooks ride on the budget install for activation: they only ever
   fire from [trip], which only runs with a budget installed on this
   domain, and installing a budget already raises [active]. *)
type trip_hook = int

let hook_id = Atomic.make 0

let on_trip f =
  let id = Atomic.fetch_and_add hook_id 1 + 1 in
  let st = Domain.DLS.get state in
  st.trip_hooks <- (id, f) :: st.trip_hooks;
  id

let remove_trip_hook id =
  let st = Domain.DLS.get state in
  st.trip_hooks <- List.filter (fun (i, _) -> i <> id) st.trip_hooks

let check_slow () =
  let st = Domain.DLS.get state in
  match st.budget with
  | None -> ()
  | Some b -> ( match spend st b with None -> () | Some r -> raise (Exceeded r))

let check () = if Atomic.get active = 0 then () else check_slow ()

(* ------------------------------------------------------------------ *)
(* Running under a budget *)

let with_budget b f =
  let st = Domain.DLS.get state in
  let old = st.budget in
  st.budget <- Some b;
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      st.budget <- old;
      Atomic.decr active)
    f

type 'a outcome = ('a, [ `Budget_exceeded of 'a * reason ]) result

let run b ~partial f =
  (* [with_budget] restores the previous budget before the exception
     reaches this handler, so building the partial result (scores,
     validation, ...) cannot itself re-trip the checkpoint. *)
  match with_budget b f with
  | v -> Ok v
  | exception Exceeded r -> Error (`Budget_exceeded (partial (), r))

let value = function Ok v -> v | Error (`Budget_exceeded (v, _)) -> v
