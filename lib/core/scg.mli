(** ZDD_SCG — the paper's algorithm (Figure 2).

    A greedy constructive heuristic for unate covering built from the
    pieces in [Covering] and [Lagrangian]:

    + encode the problem implicitly and run the ZDD reductions until the
      cyclic core is reached or the matrix is small ([MaxR]);
    + decode, run the explicit reductions (dominance, essentials, Gimpel);
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

module Par = Par
(** The Domain-backed worker pool, re-exported so callers can write
    [Scg.Par.Pool.with_pool].  Pass a pool to {!solve} (or set
    {!Config.t.jobs}) to solve cyclic-core components concurrently; use
    {!Par.map} over whole instances for batch parallelism.  Results are
    bit-identical to sequential runs — see DESIGN.md §10.  @inline *)

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
  ?pool:Par.Pool.t ->
  ?warm:Warm.t * Warm.t ->
  ?zdd_universe:Zdd.t ->
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

    [warm] is an externally owned [(λ, μ)] multiplier memory (see
    {!Warm}): the descents read their warm starts from it and write the
    final multipliers back through it, so a caller holding one pair per
    problem signature — the [ucp_serve] daemon — warm-starts repeated
    instances across independent [solve] calls.  Because the memory is
    a plain hashtable, a warmed solve ignores [pool]/[config.jobs] and
    runs its components on the calling domain; parallelise across
    requests instead.  Without [warm] (the default) behaviour is
    bit-identical to previous releases.  When [telemetry] is active the
    counters ["warm.lambda0_hit"]/["warm.lambda0_miss"] record how often
    a subproblem found a usable λ₀.

    [zdd_universe], when given, must be this very matrix's rows-family
    (e.g. a warm universe checked out of the serve cache by request
    digest, built on the calling domain): the implicit phase starts from
    it instead of re-encoding the matrix with [Matrix.to_zdd].  The
    solve also applies [config]'s ZDD manager tunables
    ([zdd_initial_size] / [zdd_gc_threshold] / [zdd_chain_reduction])
    via [Zdd.configure] before the implicit phase.

    Cyclic-core components are solved concurrently when [pool] is given
    (or when [config.jobs > 1], which creates a transient pool); covers,
    costs, bounds and status are bit-identical to the sequential run for
    every worker count.  Budget-governed runs still honour the anytime
    contract under parallelism, but where a budget trips may differ
    between jobs counts — tick counters are per-domain (only the
    wall-clock deadline is shared); see DESIGN.md §10.
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
    failing solve, calls it for the same trace.  Exceptions of [build]
    pass through. *)

val solve_logic :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Par.Pool.t ->
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
  ?pool:Par.Pool.t ->
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
  ?pool:Par.Pool.t ->
  ?config:Config.t ->
  Logic.Pla.t ->
  output:int ->
  result * Covering.From_logic.t
(** {!solve_logic} on one output of a PLA. *)

val solve_pla_multi :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Par.Pool.t ->
  ?config:Config.t ->
  Logic.Pla.t ->
  result * Covering.From_logic.multi
(** Shared-product minimisation of a whole multi-output PLA: columns are
    the output-tagged multi-output primes, rows are (minterm, output)
    pairs, and the reported cost is the number of PLA product rows.  Use
    {!Covering.From_logic.pla_of_multi_solution} to render the result. *)
