(** The benchmark regression gate: compare a fresh benchmark run
    against a committed baseline JSON and produce a pass/fail verdict
    with one line per check.

    These baseline shapes are understood (dispatch on their top-level
    fields); a baseline naming any other mode fails with a line that
    names it:

    - [{"mode":"dense", ...}] — the bit-slice kernel comparison
      ([BENCH_dense.json]).  The gated quantity is the dense-vs-sparse
      {e speedup ratio} of the dominance+greedy hot loops ([total]) per
      instance and in aggregate: both sides are measured in the same
      process, so the gate is portable across machines.  Dense/sparse
      result mismatches fail unconditionally.
    - [{"table":<id>, ...}] — a per-instance solver table
      ([BENCH_table1.json], …).  Quality fields ([cost],
      [lower_bound], [proven_optimal]) are deterministic and compared
      exactly; [seconds] gets the relative tolerance plus an absolute
      slack.
    - [{"mode":"zdd", ...}] — the ZDD manager-lifecycle benchmark
      ([BENCH_zdd.json]).  Gated facts are machine-independent:
      fingerprint identity across the gc/chain variants
      ([identical_results], per-instance [identical]), each
      instance's gc-on peak occupancy ([gc_on.peak_nodes]) against the
      baseline's (+ tolerance), the node ceiling
      ([under_ceiling_gc_on] must stay true where the baseline says
      so) and the chain fast paths firing ([chain_hits] > 0).  Wall
      seconds and the build's node counts are echoed but never
      gated.
    - [{"table":"par", ...}] — the parallel-solve comparison
      ([BENCH_par.json]).  Sequential/parallel result identity is a
      hard gate; each component row and the batch speedup must clear a
      floor: a row-level ["floor"] in the baseline wins, otherwise
      ["floor_single"] (default 0.95) or ["floor_multicore"] (default
      1.0) selected by the fresh run's visible core count.
    - [{"mode":"scale", ...}] — the big-instance pipeline benchmark
      ([BENCH_scale.json]).  Streaming round-trip identity
      ([stream_equiv_all], per-instance [stream_equiv]) and the
      planted-optimum certificates ([planted_all], [planted_ok]) are
      hard booleans; [cost]/[lower_bound]/[proven_optimal] and the
      instance dimensions are compared exactly (the bench solves under
      a deterministic step budget, so they are machine-independent);
      the counting-fold memory ratio ([fold_mem_ratio] = parser heap
      growth / file bytes) gets the relative tolerance plus a 0.25
      absolute slack; the [routing] booleans (espresso and KISS/binate
      fronts) must hold.  Parse/solve seconds are echoed but never
      gated.
    - [{"mode":"serve", ...}] — the daemon benchmark
      ([BENCH_serve.json]).  Gated facts are machine-independent
      booleans and counts only: the daemon survived the torture run
      ([daemon_alive_after], [crashes_isolated]), every response code
      matched its expectation ([correct_codes]), the drain completed
      ([clean_drain]), overload shedding engaged ([overload.shed] > 0)
      and the warm cache engaged ([warm.hits] > 0).  Throughput and
      latency are echoed but never gated.

    A baseline instance may carry a ["tolerance"] field overriding the
    global one — the per-instance knob for noisy rows. *)

module Json = Telemetry.Json

type verdict = { pass : bool; lines : string list }

val default_tolerance : float
(** 0.40 — generous on purpose: the gate must survive CI jitter. *)

val default_min_seconds : float
(** 0.05s absolute slack on table timings. *)

val check :
  ?tolerance:float ->
  ?min_seconds:float ->
  baseline:Json.t ->
  fresh:Json.t ->
  unit ->
  verdict

val pp : Format.formatter -> verdict -> unit
