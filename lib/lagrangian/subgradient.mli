(** Subgradient ascent on the Lagrangian dual (paper §3.2–§3.3).

    Drives the multipliers λ by the paper's formula (2),

    {v λ_{k+1} = max(λ_k + t_k · s_k · |UB − z_k| / ‖s_k‖², 0) v}

    with the decreasing step coefficient [t_k] halved whenever the best
    bound has not improved for [halve_after] consecutive steps.  The dual
    side (LD) is driven symmetrically: its multipliers μ descend on the
    upper bound [w_LD(μ)], which in turn tightens the [UB] estimate used by
    the primal side — the mutual-improvement scheme of §3.3.

    Along the way the Lagrangian greedy heuristic is invoked periodically
    to refresh the incumbent cover, and four stopping rules apply: the
    three of §3.2 — gap below [delta], step below [t_min], or, costs
    being integer, an incumbent matching ⌈LB⌉, which proves optimality —
    and, on a warm-started run only, a stalled bound: every
    [stall_window] steps the run stops when its best bound has gained at
    most 1 % of its absolute value over the last window (the short warm
    phases of Caprara, Fischetti and Toth, the paper's [6]).
    A cold run never stalls, so the bound a caller certifies from it
    runs the full schedule (doc/ALGORITHMS.md §17). *)

type config = {
  max_steps : int;  (** hard iteration cap (default 500) *)
  halve_after : int;  (** the paper's N_t (default 20) *)
  t0 : float;  (** initial step coefficient (default 2.0) *)
  t_min : float;  (** stop when t_k drops below (default 0.005) *)
  delta : float;  (** stop when the continuous gap falls below (default 0.01) *)
  stall_window : int;
      (** the stall rule's window in steps, checked at every multiple of
          it on runs given [lambda0] (default 30; [0] turns the rule
          off) *)
  heuristic_period : int;  (** greedy refresh cadence in steps (default 10) *)
}

val default_config : config

type outcome = {
  lambda : float array;  (** multipliers achieving the best bound *)
  mu : float array;  (** best dual-side multipliers (≈ fractional primal) *)
  lower_bound : float;  (** best z_LP(λ) observed *)
  upper_dual : float;  (** best (lowest) w_LD(μ) — an upper bound on z_P* *)
  best_solution : int list;  (** incumbent cover, column indices *)
  best_cost : int;
  steps : int;  (** subgradient steps performed *)
  stalled : bool;  (** the stall rule ended the run (a warm run only) *)
  proven_optimal : bool;  (** best_cost = ⌈lower_bound⌉ *)
  reduced_costs : float array;  (** c̃ at [lambda] *)
}

val run :
  ?budget:Budget.t ->
  ?config:config ->
  ?dense_threshold:int ->
  ?lambda0:float array ->
  ?mu0:float array ->
  ?ub:int ->
  ?on_step:(step:int -> value:float -> best:float -> unit) ->
  Covering.Matrix.t ->
  outcome
(** [dense_threshold] governs the adaptive bit-slice dispatch (default
    {!Covering.Dense.default_threshold}; [0] forces the sparse path):
    when the matrix is {!Covering.Dense.eligible}, one bitset mirror is
    built up front and shared by the relaxation sweeps and every greedy
    refresh ({!Lag_greedy}) — the outcome is bit-identical for any
    threshold.  The sweeps run on one {!Relax.workspace} built per call:
    each step is one {!Relax.primal} and one {!Relax.dual} pass over its
    preallocated buffers, the norms and the λ/μ updates are plain loops,
    and the best λ and c̃ (μ) are copied into arrays owned by the run
    only when the lower (upper) bound improves.  A relaxed optimum p*
    that leaves no row violated covers every row; it is pruned with
    {!Covering.Matrix.prune} in two buffers owned by the run and becomes
    an incumbent list only when its pruned cost beats the incumbent.
    [budget] checkpoints every subgradient step (site
    {!Budget.Subgradient}, counted against the governor's step budget)
    and is also passed to the default dual-ascent seeding; a trip ends
    the ascent early with the best bound found so far (0 when tripped
    before the first step) and a feasible incumbent — the final greedy
    refresh still runs.  [lambda0] defaults to the dual-ascent vector (§3.5); [mu0] to the
    indicator of a greedy cover (§3.3: "the initial estimate for μ₀ is
    determined by a primal heuristic"); [ub] primes the incumbent cost
    without providing a solution; [on_step] observes every iteration —
    [value] is the oscillating z_LP(λ_k), [best] the monotone best bound
    (the behaviour §3.2 describes). *)
