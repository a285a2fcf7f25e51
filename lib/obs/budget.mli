(** Cooperative per-task resource budgets.

    Solver hot loops call {!check} once per probe (a pair table build, an
    ISP candidate, a branch-and-bound node, a layout pair...).  When no
    budget is installed {e anywhere} — on any domain — this is a single
    atomic load and a branch; once some domain installs one, checks pay
    one domain-local lookup instead.  With a budget installed (via
    {!with_budget} or {!run}), each check counts one probe against the
    probe limit and, every 32 probes (and on the very first), polls the
    {!Clock} against the wall-clock deadline; crossing either limit
    raises {!Exceeded}.

    Budgeted solver entry points ([Greedy.solve_budgeted],
    [One_csr.four_approx_budgeted], ...) catch the exception at their own
    boundary with {!run} and return a typed [`Budget_exceeded] partial
    result — always a valid solution, just not a converged one — mirroring
    the shape of [Fsa_csr.Exact.solve].

    Budgets do not stack: installing one shadows any outer budget for the
    extent of the call (innermost wins).  A tripped budget is sticky —
    every later checkpoint under it re-raises immediately, so multi-stage
    solvers degrade through their remaining stages without doing work.

    The ambient budget (and the trip-hook list) is {e domain-local}: a
    budget installed in one domain neither counts probes from nor trips
    checkpoints in any other domain, and trip hooks registered on one
    domain never fire from another.  The domain pool
    ([Fsa_parallel.Pool]) additionally runs sequentially whenever a
    budget is installed, so budgeted solver runs keep their exact
    single-domain trip points. *)

type reason = [ `Probes | `Wall_clock ]

val reason_to_string : reason -> string

exception Exceeded of reason

type t

val create : ?wall_s:float -> ?probes:int -> unit -> t
(** Both limits optional; omitted means unlimited (a fully-unlimited
    budget still counts probes, useful for overhead measurement).
    [wall_s] is a relative deadline from now; [probes] bounds checkpoint
    count ([0] trips on the first check).
    @raise Invalid_argument on a negative probe budget or a NaN or
    negative [wall_s]. *)

val check : unit -> unit
(** The cooperative checkpoint: enforces the installed budget, if any.
    @raise Exceeded when the installed budget is (or already was) over. *)

val with_budget : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] installed as the ambient budget, restoring the
    previous one afterwards (also on exceptions).  {!Exceeded} escapes to
    the caller — use {!run} for the catching variant. *)

type 'a outcome = ('a, [ `Budget_exceeded of 'a * reason ]) result

val run : t -> partial:(unit -> 'a) -> (unit -> 'a) -> 'a outcome
(** [run t ~partial f] is [Ok (f ())] under budget [t], or
    [Error (`Budget_exceeded (partial (), reason))] if the budget trips.
    [partial] runs with the budget already uninstalled, so reading refs,
    scoring and validating the partial solution cannot re-trip. *)

val value : 'a outcome -> 'a
(** The payload, whether completed or partial. *)

val probes : t -> int
(** Checkpoints counted against this budget so far. *)

val exceeded : t -> reason option
(** [Some r] once the budget has tripped (sticky). *)

val installed : unit -> bool

(** {1 Trip hooks}

    Fire exactly once per budget, at the trip site, inside the
    checkpoint that crossed the limit and {e before} {!Exceeded}
    propagates.  The flight recorder ({!Flight.arm}) registers here to
    dump its ring with the trip as the final event.  Trip hooks are
    domain-local, fire in registration order, and must not raise. *)

type trip_hook

val on_trip : (reason -> unit) -> trip_hook
val remove_trip_hook : trip_hook -> unit
