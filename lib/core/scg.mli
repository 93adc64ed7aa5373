(** ZDD_SCG — the paper's algorithm (Figure 2).

    A greedy constructive heuristic for unate covering built from the
    pieces in [Covering] and [Lagrangian]:

    + above the [MaxR]/[MaxC] guards, encode the problem implicitly and
      run the ZDD reductions until the cyclic core is reached or the
      matrix is within the guards, then decode;
    + run the explicit reductions (dominance, essentials, Gimpel);
    + subgradient ascent on the Lagrangian dual gives multipliers λ, μ, a
      lower bound and heuristic covers; if the incumbent matches ⌈LB⌉ the
      solution is proven optimal and the algorithm stops;
    + otherwise columns are fixed — those proven in/out by penalty
      conditions, the "promising" ones (c̃ ≤ ĉ, μ ≥ μ̂), and always one
      σ-best column — the matrix is re-reduced, and the subgradient phase
      repeats until the matrix empties or the path is bound-dominated;
    + the whole construction restarts [NumIter] times from the saved cyclic
      core, choosing among the [BestCol] top-rated columns at random (the
      window grows per run), and the incumbent is kept irredundant.

    Solutions are reported as column indices of the input matrix, which
    must be freshly built (identifiers = indices, as {!Covering.Matrix.create}
    produces). *)

module Config = Config
(** @inline *)

module Stats = Stats
(** @inline *)

module Budget = Budget
(** The resource governor, re-exported so callers can write
    [Scg.Budget.create].  @inline *)

module Telemetry = Telemetry
(** The structured-telemetry collector, re-exported so callers can write
    [Scg.Telemetry.create].  Pass one to {!solve} to record phase spans
    (implicit reduce, explicit reduce, per-component subgradient and
    descent), counters and the subgradient convergence trace; the default
    {!Telemetry.null} makes every instrumentation site a no-op.  All
    timestamps come from {!Budget.Clock}, the same wall clock the
    governor's deadlines use.  @inline *)

module Warm = Warm
(** Multiplier memory used to warm-start λ/μ across the subproblems of a
    descent (§3.2); exposed for regression tests.  @inline *)

(** How the run ended.  Whatever the status, [solution] is a feasible
    cover and [lower_bound] a valid bound. *)
type status =
  | Optimal  (** [cost = lower_bound]: proven optimal *)
  | Feasible
      (** the heuristic ran to completion without closing the gap *)
  | Feasible_budget_exhausted of Budget.trip
      (** the resource governor stopped the run early; the trip records
          which checkpoint fired and which budget was exhausted *)

type result = {
  solution : int list;  (** column indices of the input matrix, sorted *)
  cost : int;
  lower_bound : int;  (** proven lower bound, ⌈·⌉ of the Lagrangian bound *)
  proven_optimal : bool;  (** [cost = lower_bound] *)
  status : status;
  stats : Stats.t;
}

val solve :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?config:Config.t ->
  Covering.Matrix.t ->
  result
(** Solve a covering matrix.  [budget] (default: the inactive
    {!Budget.none}) governs every phase — implicit reduction, the
    incremental explicit reduction, subgradient/dual-ascent, and the
    constructive descents.  On a trip the solver never raises: it winds
    down cooperatively and returns the best feasible cover found with a
    still-valid lower bound and [status = Feasible_budget_exhausted].
    [telemetry] (default: {!Telemetry.null}, a no-op) records phase
    spans, reduction/fixing counters and the per-step subgradient trace.

    With [config.warm_start] (the default) each descent warm-starts λ
    and μ from the previous subproblem of the same descent (§3.2) and
    from nothing else: no multiplier memory outlives a descent, so the
    answer is a function of the input, the configuration and the budget
    alone.  When [telemetry] is active the counters
    ["warm.lambda0_hit"]/["warm.lambda0_miss"] record how often a
    subproblem found a usable λ₀.  A warm-started run stops early when
    its bound stalls ({!Lagrangian.Subgradient.config}'s
    [stall_window]); a root never does, so only the incumbent a warm
    run finds can reach the bound, through a later root's [ub].  The
    steps of warm runs and the number the rule ended are
    [stats.warm_steps] and [stats.warm_stalls], and the counters
    ["warm_steps"] and ["warm_stalls"].  The root's dual penalties and
    every later one get the same run's [upper_dual], which skips
    condition-(6) passes that cannot fire ({!Lagrangian.Penalties.dual}).

    Each component keeps its last cold root — the subgradient run that
    opens a descent — and a later descent at the same incumbent reuses
    it once [Budget.charge] has booked the ticks it took; a refused
    charge re-runs it, so budgeted answers and trip ticks are those of
    a solve that re-runs every root (doc/ALGORITHMS.md §15).  Reused
    steps count in [stats.subgradient_steps] and in the
    ["subgradient.steps"] counter as before, and also in
    ["subgradient.reused_steps"]; they write no step records.

    The implicit phase runs only above [config]'s MaxR/MaxC guards
    ([max_rows_implicit], [max_cols_implicit]), as in the paper's
    Figure 2.  An input within them builds no ZDD: its rows go to the
    explicit phase sorted by {!Covering.Matrix.canonical}, the order
    decoding their ZDD would give, so the answer is the one the round
    trip would give.  The solve applies [config]'s ZDD manager tunables
    ([zdd_initial_size] / [zdd_gc_threshold] / [zdd_chain_reduction])
    via [Zdd.configure] before the implicit phase.

    Cyclic-core components ({!Covering.Partition.split}) are solved
    one after another, in component order, each with its own RNG
    stream; their covers are joined and their bounds added.
    @raise Invalid_argument if the matrix was already re-indexed. *)

val bridge :
  ?telemetry:Telemetry.t -> matrix:('b -> Covering.Matrix.t) -> (unit -> 'b) -> 'b
(** [bridge ~matrix build] runs [build ()], one of the
    {!Covering.From_logic} builders, as a ["bridge"] span and counts the
    built matrix's columns (["bridge.primes"]) and rows (["bridge.rows"]).
    {!solve_logic}, {!solve_logic_implicit} and {!solve_pla_multi} open
    it before {!solve}, whose spans never cover the build; on
    benchmark-sized PLAs it is most of the solve.  A front end that
    builds the bridge itself, to tell an input the bridge rejects from a
    failing solve, calls it for the same trace.  Callers hand the same
    [telemetry] to the builder, which splits the span into
    ["bridge-primes"] and ["bridge-rows"].  Exceptions of [build] pass
    through. *)

val solve_logic :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?config:Config.t ->
  ?cost:(Logic.Cube.t -> int) ->
  on:Logic.Cover.t ->
  dc:Logic.Cover.t ->
  unit ->
  result * Covering.From_logic.t
(** Two-level minimisation end-to-end: primes, covering matrix, ZDD_SCG.
    The returned bridge converts the solution back to a {!Logic.Cover.t}
    via {!Covering.From_logic.cover_of_solution}. *)

val solve_logic_implicit :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?config:Config.t ->
  ?cost:(Logic.Cube.t -> int) ->
  on:Logic.Cover.t ->
  dc:Logic.Cover.t ->
  unit ->
  result * Covering.From_logic.implicit_bridge
(** Same, through the signature-based implicit construction
    ({!Covering.From_logic.build_implicit}): no minterm enumeration, so
    wide functions (> 24 inputs) are fine as long as the number of
    distinct prime signatures stays moderate. *)

val solve_pla :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?config:Config.t ->
  Logic.Pla.t ->
  output:int ->
  result * Covering.From_logic.t
(** {!solve_logic} on one output of a PLA. *)

val solve_pla_multi :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?config:Config.t ->
  Logic.Pla.t ->
  result * Covering.From_logic.multi
(** Shared-product minimisation of a whole multi-output PLA: columns are
    the output-tagged multi-output primes, rows are (minterm, output)
    pairs, and the reported cost is the number of PLA product rows.  Use
    {!Covering.From_logic.pla_of_multi_solution} to render the result. *)
