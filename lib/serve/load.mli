(** Load generation against a running daemon: deterministic request
    mixes, concurrent lanes, latency percentiles, and a JSON report.

    Shared by [ucp_load] (the CLI) and the torture test.  Payload generation
    is seeded, so a (seed, size) pair names the same workload
    everywhere. *)

type job =
  | Framed of {
      req : Proto.request;
      payload : string;
      expect : Proto.code option;
          (** assert the answer (torture/smoke); [None] = any code *)
    }
  | Raw of {
      bytes : string;  (** pre-encoded — deliberately malformed — frame *)
      note : string;
          (** what is wrong with it, for failure messages.  Acceptable
              answers: [PARSE_ERROR] or a clean close, never anything
              else.  A full queue sheds the frame with [OVERLOAD]
              before reading it, so {!run} sends it again, [retries]
              times at most, as it does a framed request; only the
              final answer is judged. *)
    }

(** {1 Payload generators} *)

val ucp_payload : seed:int -> rows:int -> cols:int -> string
(** A random feasible [.ucp] instance (every row covered by
    construction), deterministic in [seed]. *)

val orlib_payload : seed:int -> rows:int -> cols:int -> string
val pla_payload : seed:int -> products:int -> string
val kiss_payload : unit -> string

val steady_jobs :
  n:int -> distinct:int -> seed:int -> rows:int -> cols:int -> job list
(** [n] solve requests cycling over [distinct] instances — repeats after
    the first cycle hit the daemon's parse cache. *)

val raw_frames : (string * string) list
(** The malformed-framing corpus, [(bytes, what-is-wrong)] pairs:
    truncated and oversized/negative length prefixes, unknown format
    tags and verbs, foreign protocols, malformed option values, and the
    silent connect.  Fed to the daemon raw by {!torture_jobs} and the
    serve test suite; the only acceptable answers are [PARSE_ERROR] or
    a clean close. *)

val torture_jobs : n:int -> seed:int -> fault:bool -> job list
(** The acceptance mix: valid requests in all four formats, malformed
    frames (truncated payload, oversized length prefix, wrong format
    tag, garbage request line, mid-payload disconnect), budget-tripped
    requests ([timeout 0.01] → [FEASIBLE_BUDGET]), and — when [fault]
    and the daemon allows injection — crashing requests answered
    [INTERNAL_ERROR]. *)

(** {1 Running} *)

type report = {
  requests : int;
  completed : int;  (** got a response frame *)
  clean_closes : int;  (** raw jobs the daemon dropped without a frame *)
  by_code : (string * int) list;  (** response-code totals, wire spelling *)
  retries : int;  (** extra attempts spent on [OVERLOAD] *)
  unexpected : string list;  (** expectation failures (capped at 20) *)
  elapsed : float;
  rps : float;  (** completed / elapsed *)
  p50_ms : float;
      (** client-observed latency quantiles, read off the same
          fixed-bucket histogram estimator the server uses
          ({!Metrics.Histogram}) so both sides are comparable *)
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  shed : int;  (** jobs whose {e final} answer was [OVERLOAD] *)
  errors : int;  (** jobs answered [INTERNAL_ERROR] *)
  shed_rate : float;  (** [OVERLOAD] answers / total attempts *)
  latency : Metrics.Histogram.snapshot;  (** the raw client histogram *)
}

val run :
  socket:string -> ?concurrency:int -> ?retries:int -> job list -> report
(** Drive the jobs through [concurrency] (default 4) client threads.
    [retries] (default 0) bounds the [OVERLOAD] retries of every job,
    framed ({!Client.request}) or raw ({!Client.retrying} around
    {!Client.send_raw}) — with 0 an [OVERLOAD] is recorded as the
    job's outcome; with retries the job backs off and tries again, and
    only the final code is recorded.
    Connection-level surprises on framed jobs (the daemon dropped us)
    are recorded in [unexpected], never raised. *)

val report_json : report -> Telemetry.Json.t
val pp_report : Format.formatter -> report -> unit

(** {1 The server-side view}

    A [STATS] snapshot taken before and after a run windows the server's
    own cumulative registry into exactly the run: counter deltas and
    bucket-wise histogram differences ({!Metrics.Histogram.delta}). *)

type server_view = {
  window_s : float;  (** server uptime delta across the window *)
  v_accepted : int;
  v_shed : int;
  v_crashed : int;
  v_timeouts : int;
  v_eofs : int;
  v_by_code : (string * int) list;  (** nonzero response-code deltas *)
  v_cache_hits : int;  (** summed over all four signature classes *)
  v_cache_misses : int;
  v_hit_ratio : float;  (** hits / (hits + misses), 0 when neither *)
  v_queue_wait : Metrics.Histogram.snapshot option;  (** windowed *)
  v_solve_ok : Metrics.Histogram.snapshot option;  (** windowed *)
}

val server_view :
  before:Telemetry.Json.t -> after:Telemetry.Json.t -> server_view
(** Pure: reads the ["metrics"] member of two [STATS] bodies.  Missing
    members read as zero, so a view against an older daemon degrades to
    zeros rather than failing. *)

val server_view_json : server_view -> Telemetry.Json.t
val pp_server_view : Format.formatter -> server_view -> unit

val conservation_errors : Telemetry.Json.t -> string list
(** Audit one {e quiesced} [STATS] body (no in-flight requests other
    than the [STATS] itself): every accepted request must be accounted
    for exactly once — [accepted = Σ responses + timeouts + eofs], shed
    equals [OVERLOAD] answers, queue-wait samples equal worker pops, and
    the legacy top-level fields mirror the registry.  Empty = sound. *)
