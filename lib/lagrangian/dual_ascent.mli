(** The dual-ascent heuristic (paper §3.5).

    Builds a feasible solution of the dual problem (D) — a row-indexed
    vector [m] with [A'm ≤ c], [0 ≤ m ≤ c̄] — whose value [Σ m_i] is a
    lower bound on the optimum and whose vector seeds the subgradient
    method's λ₀.

    Phase 1 starts from the caps [m_i = c̄_i] and walks the rows from the
    most-covered down, shrinking each variable by the worst violation of a
    dual constraint through it.  Phase 2 walks the rows from the
    least-covered up, raising each variable by the smallest slack of the
    constraints through it.  Under uniform costs the result is exactly an
    independent-set bound (paper Proposition 1). *)

type t = {
  m : float array;  (** the dual-feasible vector, one entry per row *)
  value : float;  (** Σ m_i — a lower bound on z_P* and on the optimum *)
}

val run : ?budget:Budget.t -> Covering.Matrix.t -> t
(** Always returns a dual-feasible vector (possibly all zeros).  Every
    phase-1 sweep is a {!Budget.tick} checkpoint (site
    {!Budget.Dual_ascent}); on a trip the ascent restarts phase 2 from
    the trivially feasible point [m = 0], so the returned vector is
    always dual-feasible and the bound always valid. *)

type order
(** The rows of one matrix by decreasing degree, ties by index: the
    phase-1 sweep order (phase 2 walks it backwards). *)

val row_order : Covering.Matrix.t -> order
(** Sort once per matrix; {!Penalties.dual} runs two ascents per column
    on the same matrix. *)

val run_with_costs :
  ?budget:Budget.t ->
  ?start:float array ->
  ?order:order ->
  Covering.Matrix.t ->
  costs:float array ->
  t
(** Same ascent against a modified column-cost vector — the engine behind
    the dual penalties (paper §3.6), where one cost is set to 0 or +∞.
    [budget] checkpoints as in {!run}.  [order] (default: sorted here)
    must come from {!row_order} on this very matrix (checked
    physically).  The caps and the violation and slack folds use
    [min]/[max] on floats with the semantics of Stdlib's polymorphic
    ones ([min a b = if a <= b then a else b]). *)

val to_lambda : t -> float array
(** The vector as initial Lagrangian multipliers λ₀. *)
