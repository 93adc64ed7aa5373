(** Penalty-based problem reductions (paper §3.6).

    Implicit branching on a column followed by immediate pruning of one
    side, using the Lagrangian bound (conditions (3)–(4)) or dual-heuristic
    bounds on the cost-modified problems (conditions (5)–(6)):

    - (3) [z_LP − c̃_j ≥ z_best] with [c̃_j ≤ 0]   ⟹ p_j = 1 (force in);
    - (4) [z_LP + c̃_j ≥ z_best] with [c̃_j > 0]   ⟹ p_j = 0 (discard);
    - (5) [w_D(c_j := +∞) ≥ z_best]               ⟹ p_j = 1;
    - (6) [w_D(c_j := 0) + c_j ≥ z_best]          ⟹ p_j = 0.

    These generalise the limit bound theorem (paper Theorem 2 and
    Proposition 3).  Dual penalties run one dual-ascent per column, so the
    paper gates them behind [DualPen] = 100 columns; we keep that gate. *)

type outcome = {
  forced_in : int list;  (** column indices proven to belong to an optimum *)
  forced_out : int list;  (** column indices proven absent from every
                              better-than-incumbent solution *)
}

val nothing : outcome

val lagrangian :
  Covering.Matrix.t ->
  lp_value:float ->
  reduced_costs:float array ->
  z_best:int ->
  outcome
(** Conditions (3) and (4) at a given Lagrangian point. *)

val dual :
  ?max_cols:int -> ?upper_dual:float -> Covering.Matrix.t -> z_best:int -> outcome
(** Conditions (5) and (6) via {!Dual_ascent.run_with_costs}; skipped
    entirely (returns {!nothing}) when the matrix has more than [max_cols]
    columns (default 100, the paper's [DualPen]).  [upper_dual], an upper
    bound on the LP optimum of this very matrix (a
    {!Subgradient.outcome}'s [upper_dual]), skips column j's (6) pass
    when [upper_dual + c_j] falls short of [z_best] by more than a small
    float margin: by weak duality that pass's value is at most the LP
    with [c_j = 0], which is at most the LP, so it cannot fire.  The
    outcome is the same with and without it. *)

val apply : Covering.Matrix.t -> outcome -> (Covering.Matrix.t * int list) option
(** Remove forced-out columns and discharge forced-in ones: returns the
    reduced matrix and the forced-in column {e identifiers}.  [None] when
    the reductions leave some row uncoverable, i.e. no solution better than
    the incumbent exists. *)
