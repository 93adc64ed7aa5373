(** The [ucp_serve] daemon: a Unix-domain-socket solve service built for
    graceful degradation.

    Architecture (DESIGN.md §14): one acceptor thread multiplexes the
    listening socket against the drain flag; accepted connections enter
    a {e bounded} admission queue; [workers] long-lived worker domains
    pop connections and run one request each.  The {!Cache} keeps
    parsed problems and memoized PLA primes per problem signature, and
    nothing else: every request runs {!Scg.solve} from scratch, so it
    answers as [ucp_solve] does for the same bytes, whatever ran before
    it or alongside it.

    Degradation ladder, in order of preference:
    + a full queue {e sheds} the connection — [OVERLOAD] plus a
      [retry-after] hint, never unbounded queueing — except a [HEALTH]
      probe, which the acceptor recognises (by peeking at the socket
      buffer) and answers inline so monitoring outlives saturation;
    + a request over its (server-clamped) budget returns its best
      feasible cover as [FEASIBLE_BUDGET] — the solver's anytime
      contract on the wire;
    + a crash inside one request is caught, logged, answered
      [INTERNAL_ERROR], and invalidates {e only that signature's} cache
      entry — the daemon and every other signature's entry survive;
    + a drain ({!request_drain}, wired to SIGTERM/SIGINT by
      [ucp_serve]) stops accepting, answers queued-but-unstarted
      connections [SHUTDOWN], gives in-flight solves [drain_grace]
      seconds and then trips their budgets via {!Budget.interrupt} —
      they still answer with feasible covers — then flushes telemetry
      and returns. *)

type config = {
  socket : string;  (** path of the Unix-domain socket *)
  workers : int;  (** worker domains (>= 1) *)
  queue_depth : int;  (** admission-queue bound; beyond it, shed *)
  max_payload : int;  (** reject larger length prefixes up front *)
  read_timeout : float;
      (** seconds of receive timeout per read — slow or half-open
          clients cannot pin a worker *)
  max_timeout : float;
      (** ceiling (and default) for the per-request wall-clock budget;
          also what makes drain interruption guaranteed to terminate *)
  max_nodes : int option;  (** ceiling for the per-request node budget *)
  max_steps : int option;  (** ceiling for the per-request step budget *)
  drain_grace : float;
      (** seconds an in-flight solve gets after a drain request before
          its budget is tripped *)
  retry_after : float;  (** hint sent with [OVERLOAD], seconds *)
  allow_fault_injection : bool;
      (** honour [fault-after]/[fault-site]/[fault-raise] request
          headers (testing only; off by default) *)
  trace : string option;  (** telemetry JSON-lines sink, flushed per record *)
  access_log : string option;
      (** structured access log: one JSON line per finished request
          (trace id, digest, outcome code, queue wait, solve time, cache
          disposition), flushed per line.  [None] disables it. *)
  cache_capacity : int;  (** {!Cache.create} bound *)
}

val default_config : socket:string -> config
(** Conservative defaults: 2 workers, queue depth 16, 16 MiB payloads,
    5 s reads, 30 s budget ceiling, 1 s grace, fault injection off. *)

type t

val start : config -> t
(** Bind, listen, spawn the acceptor thread and worker domains, return
    immediately.  Replaces a stale socket file.  SIGPIPE is set to
    ignore (dead peers must surface as [EPIPE], not kill the process).
    @raise Unix.Unix_error if the socket cannot be bound. *)

val config : t -> config
val draining : t -> bool

val request_drain : t -> unit
(** Begin the drain described above.  Idempotent, async-signal-safe in
    the OCaml sense (sets an atomic and wakes the queue), so it can be
    called from a signal handler. *)

val wait : t -> unit
(** Block until the drain completes: waits [drain_grace] for in-flight
    requests, trips stragglers' budgets, joins the acceptor and all
    workers, closes the telemetry sink.  Call after {!request_drain}.
    Idempotent — later calls return immediately. *)

val stop : t -> unit
(** {!request_drain} followed by {!wait}. *)

val stats_json : t -> Telemetry.Json.t
(** The [STATS] response body: uptime, request/shed/timeout/crash
    counts, queue depth, per-code totals, cache hit/miss/invalidation
    counts, plus a ["metrics"] member holding the full registry
    snapshot ({!Metrics.snapshot_json}: counters, gauges, histograms
    with quantiles and raw buckets). *)

val health_json : t -> saturated:bool -> Telemetry.Json.t
(** The [HEALTH] response body: status/readiness verdict, uptime,
    queue depth versus capacity, in-flight count.  [saturated] marks a
    verdict answered on the acceptor's shed path (queue full). *)

val metrics : t -> Metrics.t
(** The daemon's live metrics registry (for in-process tests). *)
