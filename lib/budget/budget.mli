(** Resource governor: deadline-aware anytime solving.

    The paper's own experiments run under hard resource ceilings (20 CPU
    minutes for the Espresso comparisons, [MaxR]/[MaxC] for the implicit
    phase).  This module is the reproduction's generalisation: a governor
    value carrying a wall-clock deadline, a node budget for the
    reduction/branching engines, an iteration cap for the subgradient
    machinery, and a deterministic fault-injection mode for testing.

    Every hot loop of the solver stack calls {!tick} once per unit of
    work — a cooperative checkpoint.  When a budget is exhausted the
    checkpoint returns [true], the loop winds down gracefully, and the
    enclosing solver returns its best feasible answer so far together
    with a still-valid lower bound; the first exhaustion is recorded as a
    {!trip} that outer layers (and the caller) can inspect.

    A governor with no limits set — in particular the shared {!none}
    value used as the default everywhere — never trips and never
    mutates, so running without a budget is behaviourally identical to
    the ungoverned solver. *)

module Clock : sig
  val now : unit -> float
  (** The solver-wide wall clock ([Unix.gettimeofday]).  Deadlines,
      telemetry spans and reported timings all read this one clock so
      their numbers are directly comparable — in particular
      [Stats.total_seconds] is consistent with the [--timeout] that may
      have tripped the run. *)
end

(** Checkpoint sites, one per governed loop. *)
type site =
  | Implicit_reduce  (** {!Covering.Implicit.reduce} ZDD fixpoint steps *)
  | Explicit_reduce  (** {!Covering.Reduce2} worklist fixpoint *)
  | Subgradient  (** {!Lagrangian.Subgradient.run} iterations *)
  | Dual_ascent  (** {!Lagrangian.Dual_ascent} phase-1 sweeps *)
  | Exact_bb  (** {!Covering.Exact.solve} branch-and-bound nodes *)
  | Espresso_loop  (** {!Espresso.minimise} expand/irredundant/reduce passes *)
  | Parse
      (** {!Logic.Reader} streaming-parser progress (lines/token batches).
          Uncapped by the node and step budgets — parsing must not eat
          into the solve allowance — but still subject to the wall-clock
          deadline, fault injection and {!interrupt}. *)

val string_of_site : site -> string
val site_of_string : string -> site option
val all_sites : site list

(** Which budget was exhausted, carrying the configured limit. *)
type reason =
  | Deadline of float  (** wall-clock timeout, seconds allotted *)
  | Node_budget of int  (** reduction / branch-and-bound node budget *)
  | Step_budget of int  (** subgradient / dual-ascent iteration cap *)
  | Fault_injected of int  (** deterministic test trip after N ticks *)
  | Interrupted
      (** {!interrupt} was called — a signal handler or a daemon drain
          asked the solver to wind down to its anytime answer *)

exception Injected_fault of { site : site; tick : int }
(** Raised from {!tick} instead of tripping when the governor was
    created with [~fault_raise:true] and the fault budget fires:
    simulates a {e crash} escaping the solver mid-flight (for testing
    crash isolation), as opposed to the cooperative wind-down of a
    {!Fault_injected} trip. *)

type trip = {
  site : site;  (** checkpoint at which the governor fired *)
  reason : reason;
  tick : int;  (** global tick count when it fired *)
}

type t

val none : t
(** The shared inactive governor: {!tick} returns [false] without
    mutating anything.  Default for every [?budget] argument. *)

val create :
  ?timeout:float ->
  ?nodes:int ->
  ?steps:int ->
  ?fault_after:int ->
  ?fault_site:site ->
  ?fault_raise:bool ->
  ?now:(unit -> float) ->
  ?check_every:int ->
  unit ->
  t
(** A fresh active governor.

    [timeout] is a relative wall-clock deadline in seconds, measured
    from this call; [nodes] caps the total ticks at the node-like sites
    ({!Implicit_reduce}, {!Explicit_reduce}, {!Exact_bb}); [steps] caps
    the total ticks at the iteration-like sites ({!Subgradient},
    {!Dual_ascent}); [fault_after] trips deterministically after that
    many ticks at [fault_site] (any site when [fault_site] is omitted),
    and with [fault_raise] (default [false]) the fault {e raises}
    {!Injected_fault} from the checkpoint instead of tripping, so the
    exception unwinds the solver like a genuine crash.
    [now] (default {!Clock.now}) and [check_every] (default 32;
    how many ticks between clock reads) exist for tests.

    A governor created with no limits at all is active — its counters
    advance — but never trips; it is the way to verify that governed and
    ungoverned runs coincide. *)

val tick : t -> site -> bool
(** [tick g site] advances the governor by one unit of work attributed
    to [site] and returns [true] iff the solver must stop.  The first
    exhausted budget is recorded; once tripped the governor stays
    tripped (every later tick returns [true] immediately), so a trip
    deep in a nested loop unwinds the whole solver stack. *)

val charge : t -> (site * int) list -> bool
(** [charge g batch] books [batch] — [k] ticks at [site] for each
    [(site, k)] — all at once, or not at all.  It books the batch and
    returns [true] iff ticking it one by one with {!tick} would not have
    stopped the solver; [g] then holds the tick counts those ticks would
    have left, so every later {!tick} trips (or not) at the same site,
    reason and tick.  Otherwise it returns [false] and changes nothing:
    on a tripped or interrupted governor, when a node, step or fault
    limit would fire inside the batch, or when the batch crosses a
    clock-read tick (a multiple of [check_every]) past the deadline.
    An empty batch and {!none} always accept.  A solver that already
    knows the work a computation will do — [Scg] reusing a cold root —
    charges it instead of redoing it, and redoes it on a refusal so the
    trip lands where it always did.
    @raise Invalid_argument on a negative tick count. *)

val tripped : t -> trip option
(** The first trip, if any. *)

val interrupt : t -> unit
(** [interrupt t] asks the governor to trip with reason {!Interrupted}
    at its next checkpoint — the cooperative analogue of a kill: the
    engine winds down to its anytime feasible answer exactly as on any
    other budget exhaustion.  Safe to call from a signal handler or
    from another domain (the flag is an [Atomic] in the shared limits),
    and it propagates to every {!fork}ed child, past and future, since
    children share their parent's limits.  A no-op on {!none} — install
    an {e active} governor (a limitless [create ()] will do) wherever
    interruption must be possible. *)

val interrupted : t -> bool
(** Whether {!interrupt} was called (the trip itself may not have been
    recorded yet if no checkpoint ran since). *)

val is_active : t -> bool
val ticks : t -> int
(** Total ticks so far (0 for {!none}). *)

val fork : t -> t
(** [fork g] is a child governor for one instance of a batch: it
    shares [g]'s immutable limits — the wall-clock deadline is an
    {e absolute} instant, so every domain checks the same deadline on
    the shared clock — but owns fresh tick counters, so domains meter
    their work without touching shared mutable state.  If [g] has
    already tripped the child starts tripped.  [fork none] is {!none}.

    The node/step budgets thereby apply per instance; only the deadline
    and the interrupt flag are shared (DESIGN.md §10).  A child's ticks
    and trip are its own: forking and ticking a child never change
    [g]'s. *)

val pp_site : Format.formatter -> site -> unit
val pp_reason : Format.formatter -> reason -> unit
val pp_trip : Format.formatter -> trip -> unit

val describe : trip -> string
(** One-line rendering, e.g. ["subgradient: wall-clock deadline (2.0s) at tick 4711"]. *)
