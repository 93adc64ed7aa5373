(** Structured solver telemetry: phase spans, counters, timestamped
    events and a subgradient convergence trace.

    The paper's whole evaluation is runtime/quality tables, so the
    solver needs a window finer than one flat [Stats.t]: which phase the
    time went to (implicit reduce, explicit reduce, per-component
    subgradient and descent), how much each reduction rule removed, how
    many ZDD nodes were allocated, and when the incumbent improved.
    This module is that window.

    A collector is either the shared inactive {!null} — every operation
    returns immediately without allocating, so an untraced run pays
    nothing — or an active recorder created with {!create}.  An active
    collector accumulates spans, counters and events in memory (for
    {!summary} and for tests) and, when a [trace] sink is given,
    additionally emits every event as one JSON-lines record the moment
    it happens.

    All timestamps come from the same wall clock the resource governor
    uses ({!Budget.Clock.now}), so trace times, [Stats] times and
    [--timeout] deadlines are directly comparable.

    {2 Trace record schema}

    Each line is one JSON object with at least ["t"] (seconds since the
    collector was created, float) and ["ev"] (record type):

    - [{"t", "ev":"span_begin", "name", "depth"}]
    - [{"t", "ev":"span_end",   "name", "depth", "dur", "gauges"}] —
      ["gauges"] maps each gauge name to [{"v": <sample at span end>,
      "d": <delta over the span>}].  Built-in gauges are the GC meters
      ["gc.minor_words"], ["gc.promoted_words"] and
      ["gc.major_collections"] (all monotone counters, so [d >= 0]);
      {!register_probe} adds in-process gauges — the solver registers
      the ZDD unique-table meters ["zdd.nodes"] (occupancy) and
      ["zdd.peak_nodes"] (high-water mark).
    - [{"t", "ev":"step", "phase", "component", "step", "value", "best"}]
      — one subgradient iteration: oscillating bound and monotone best
    - [{"t", "ev":"<custom>", ...}] — {!event} records, e.g.
      ["incumbent"] with ["cost"]
    - [{"t", "ev":"summary", "spans", "counters", "events", "gauges"}] —
      emitted once by {!close}, same value {!summary} returns; its
      ["gauges"] carry [{"v": <final sample>, "peak": <max sample>}]. *)

module Json = Jsont

type t

val null : t
(** The inactive collector: {!enabled} is [false], every operation is a
    no-op and {!span} runs its thunk directly.  Shared and immutable. *)

val create : ?clock:(unit -> float) -> ?trace:(string -> unit) -> unit -> t
(** An active collector.  [clock] (default {!Budget.Clock.now}) is read
    once at creation and once per record; [trace] receives each record
    as a compact JSON line (without the trailing newline) as it is
    produced.  Without [trace] the collector records in memory only. *)

val with_channel : out_channel -> t
(** [create] with a sink that writes one line per record to the channel
    (caller keeps ownership; {!close} flushes but does not close it). *)

val enabled : t -> bool
(** [false] exactly for {!null}.  Call sites use it to skip building
    event payloads on untraced runs. *)

val elapsed : t -> float
(** Seconds since creation (0 for {!null}). *)

(** {1 Gauges}

    A gauge is a sampled in-process meter (GC counters, ZDD unique-table
    occupancy): each active span samples every gauge at entry and exit
    and records the exit value plus the delta over the span. *)

type gauge = {
  gauge : string;  (** gauge name, e.g. ["gc.minor_words"] *)
  value : float;  (** sample at span end *)
  delta : float;  (** end minus begin; [>= 0] for monotone meters *)
}

val register_probe : string -> (unit -> float) -> unit
(** [register_probe name sample] adds a gauge to every collector created
    afterwards (the registry is snapshot by {!create}).  Registering an
    already-registered name is a no-op.  The GC gauges are built in;
    [Scg] registers the ZDD ones at link time. *)

val probes : unit -> (string * (unit -> float)) list
(** The current probe registry as individually-sampleable closures: the
    built-in GC meters first, then everything {!register_probe} added so
    far.  Domain-local probes (the ZDD meters) read the calling domain's
    state.  The live metrics registry ([Metrics]) imports these as
    gauges. *)

(** {1 Spans} *)

type span = {
  name : string;
  start : float;  (** seconds since collector creation *)
  stop : float;
  depth : int;  (** nesting depth at entry; top level = 0 *)
  gauges : gauge list;  (** one sample per registered gauge *)
}

val span : t -> ?index:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] as a named phase.  Spans nest; the
    record is completed even if [f] raises.  [index] suffixes the name
    (["component" ~index:3] → ["component-3"]) without the caller
    allocating on the null path. *)

val spans : t -> span list
(** Completed spans, in completion order (inner before outer). *)

(** {1 Counters} *)

val add : t -> string -> int -> unit
val incr : t -> string -> unit

val counter : t -> string -> int
(** Current value (0 when never touched, or on {!null}). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Events and the convergence trace} *)

val event : t -> string -> (string * Json.t) list -> unit
(** A timestamped record.  The payload list is evaluated by the caller,
    so guard construction with {!enabled} on hot paths.  Events are
    counted per name in memory and forwarded to the trace sink. *)

val step :
  t -> phase:string -> component:int -> step:int -> value:float -> best:float -> unit
(** One convergence-trace point (typically wired to
    [Subgradient.run ~on_step]).  Forwarded to the trace sink; in memory
    only the per-phase count and the last [best] are kept, so long runs
    stay cheap. *)

val last_best : t -> phase:string -> float option
(** The [best] value of the most recent {!step} for [phase]. *)

(** {1 Summary} *)

val summary : t -> Json.t
(** Aggregate view: per-span-name [{count, seconds}] (self-inclusive
    wall time), all counters, per-event-name counts, and total elapsed
    seconds.  [Obj []]-shaped but never fails — {!null} summarises to an
    empty object. *)

val close : t -> unit
(** Emit the summary as a final ["ev":"summary"] trace record and flush
    the sink.  Idempotent; a no-op without a sink or on {!null}. *)

(** {1 Merging collectors} *)

val merge : t -> t -> unit
(** [merge t child] folds another collector into [t], as the daemon
    folds each request's collector into its server collector: counters,
    event counts and step counts are summed (conservation: nothing is
    lost or double-counted), completed spans are appended, gauge peaks
    are maxed per gauge name, and per-phase "last best" values are
    replaced by [child]'s.  [child]'s trace sink, if any, is not
    touched.  No-op when either side is {!null}. *)
