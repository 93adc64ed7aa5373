(** A lock-free, multi-domain-safe metrics registry for live services.

    [Telemetry] is the offline window: per-solve spans, counters and
    convergence traces that end up in a file.  This module is the live
    window: named counters, gauges and fixed-bucket histograms that many
    worker domains update concurrently and a monitoring request samples
    at any moment — the daemon's [STATS] verb is one registry snapshot.

    Concurrency model: every mutation is a single [Atomic] operation
    (counter bumps, histogram bucket increments, CAS-retried float
    sums), so recording never takes a lock and never blocks a solve.
    Registration uses CAS-retry over an immutable association list, the
    same idiom as {!Telemetry.register_probe} — registration is a
    startup concern, recording is the hot path.

    Snapshots are plain immutable values: take one per histogram, merge
    or subtract them ({!Histogram.merge}, {!Histogram.delta} — the load
    generator uses deltas to window a run out of cumulative server
    totals), and read quantiles off the result. *)

module Json = Telemetry.Json

(** {1 Counters} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val name : t -> string
end

(** {1 Histograms}

    Fixed bounds chosen at creation; observation finds the bucket by
    binary search and bumps one atomic cell.  Quantiles are estimated by
    linear interpolation inside the winning bucket, so an estimate is
    always within that bucket's bounds — the error is bounded by bucket
    width, never by sample count. *)

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample.  Values beyond the last bound land in the
      overflow bucket; negative values clamp into the first. *)

  val name : t -> string

  type snapshot = {
    bounds : float array;  (** upper bounds; one overflow bucket beyond *)
    counts : int array;  (** length = [Array.length bounds + 1] *)
    count : int;  (** total observations *)
    sum : float;  (** sum of observed values *)
  }

  val snapshot : t -> snapshot
  (** A consistent-enough copy: each cell is read atomically; concurrent
      observers may straddle the read, but [count] always equals the sum
      of [counts] (it is derived, not read separately). *)

  val merge : snapshot -> snapshot -> snapshot
  (** Bucket-wise sum.  Associative and commutative, with the empty
      snapshot as identity — fold worker snapshots in any order.
      @raise Invalid_argument when the bounds differ. *)

  val delta : after:snapshot -> before:snapshot -> snapshot
  (** Bucket-wise difference, clamped at zero: the observations recorded
      between two cumulative snapshots of the same histogram.
      @raise Invalid_argument when the bounds differ. *)

  val quantile : snapshot -> float -> float
  (** [quantile s q] for [q] in [0,1]: linear interpolation within the
      bucket holding rank [q * count]; 0 on an empty snapshot; the last
      finite bound when the rank lands in the overflow bucket. *)

  val to_json : snapshot -> Json.t
  (** [{count, sum, p50, p90, p99, p999, bounds, counts}] — quantiles
      pre-computed for human readers, raw buckets kept so a client can
      re-derive windows with {!of_json} and {!delta}. *)

  val of_json : Json.t -> snapshot option

  val default_latency_bounds : float array
  (** Log-spaced seconds from 100 µs to 100 s, 4 buckets per decade —
      wide enough for queue waits and solve times alike. *)

  val default_size_bounds : float array
  (** Powers of 4 from 64 to ~16 M — payload and solution sizes. *)
end

(** {1 The registry} *)

type t

val create : unit -> t

val counter : t -> string -> Counter.t
(** Find-or-create by name: a second call with the same name returns the
    same counter, so call sites need no shared setup order. *)

val histogram : ?bounds:float array -> t -> string -> Histogram.t
(** Find-or-create; [bounds] (default
    {!Histogram.default_latency_bounds}) is honoured only by the call
    that creates the histogram. *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a sampled meter.  Sampling happens at snapshot time on the
    snapshotting domain; a sampler that raises reads as [nan].
    Re-registering a name is a no-op (first sampler wins). *)

val register_telemetry_probes : t -> unit
(** Import every {!Telemetry.probes} gauge (the built-in GC meters plus
    anything registered with {!Telemetry.register_probe}, e.g. the ZDD
    unique-table meters) into this registry.  Domain-local probes read
    the snapshotting domain's state. *)

val snapshot_json : t -> Json.t
(** [{counters:{name:int}, gauges:{name:float}, histograms:{name:...}}]
    — the [STATS] payload.  Counters and histogram cells are atomic
    reads; gauges are sampled now. *)
