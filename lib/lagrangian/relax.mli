(** The Lagrangian relaxation of unate covering (paper §3.1).

    For multipliers λ ≥ 0 (one per row), the Lagrangian problem

    {v min  c̃'p + λ'e    s.t.  0 ≤ p ≤ e,    c̃ = c − A'λ v}

    has the trivial integer optimum p_j = 1 ⟺ c̃_j ≤ 0, of value

    {v z_LP(λ) = Σ_j min(c̃_j, 0) + Σ_i λ_i ≤ z_P* ≤ z_UCP* v}

    This module evaluates that relaxation; {!Subgradient} drives λ. *)

type eval = {
  reduced_costs : float array;  (** c̃, per column *)
  in_solution : bool array;  (** the relaxed optimum p*, per column *)
  value : float;  (** z_LP(λ) — a lower bound on the optimum *)
  subgradient : float array;  (** s = e − A p*, per row *)
  violated : int;  (** number of uncovered rows under p* *)
}

(** {1 Per-run workspace}

    The subgradient ascent evaluates both relaxations once per step.  A
    {!workspace} holds everything those evaluations need, built once per
    run: the caps [c̄] (they depend on neither λ nor μ) and the buffers
    the two kernels below overwrite in place.  A kernel call allocates
    nothing — its scalar results land in the all-float [values] record —
    and reads no state left by an earlier call, so reusing a workspace
    gives bit for bit the results of a fresh one.

    Every float is computed by the same operations in the same order as
    the definitions above spell them out: folds run in ascending index
    order over the sparse row and column lists, and the caps use
    [min a b = if a <= b then a else b].  With a dense mirror attached,
    the per-row covered counts of [s] are word-parallel popcounts
    against the in-solution column bitset; they are integers, so the
    results do not depend on the path. *)

type values = {
  mutable z_lp : float;  (** z_LP(λ) at the last {!primal} call *)
  mutable w_ld : float;  (** w_LD(μ) at the last {!dual} call *)
}

type workspace = private {
  matrix : Covering.Matrix.t;
  dense : Covering.Dense.t option;  (** the mirror behind the covered counts *)
  caps : float array;  (** c̄, per row *)
  c_tilde : float array;  (** c̃ at the last {!primal} call, per column *)
  p_star : bool array;  (** the relaxed optimum p*, per column *)
  s : float array;  (** s = e − A p*, per row *)
  m_star : float array;  (** the inner maximiser m* of (LD), per row *)
  g : float array;  (** the (LD) subgradient at the last {!dual} call *)
  sol : int array;  (** p* as a column set of [dense] (empty without) *)
  values : values;
  mutable n_violated : int;  (** rows with [s_i > 0] at the last {!primal} *)
}

val workspace : ?dense:Covering.Dense.t -> Covering.Matrix.t -> workspace
(** A workspace for [m].  [dense] must mirror [m] (checked physically).
    @raise Invalid_argument on a mirror of a different matrix. *)

val primal : workspace -> float array -> unit
(** The primal kernel at λ: one column pass writes [c_tilde], [p_star]
    and the [Σ_j min(c̃_j, 0)] part of [values.z_lp]; one row pass adds
    [Σ_i λ_i] and writes [s] and [n_violated].
    @raise Invalid_argument on a length mismatch or a negative
    multiplier. *)

val dual : workspace -> float array -> unit
(** The fused dual kernel at μ: one row pass computes each
    [ẽ_i = 1 − Σ_j a_ij μ_j] once, writes [m_star] and the
    [Σ_i max(ẽ_i, 0)·c̄_i] part of [values.w_ld]; one column pass adds
    [Σ_j μ_j c_j] and writes [g].
    @raise Invalid_argument on a length mismatch. *)

(** {1 One-shot evaluations}

    Thin wrappers over the kernels, for callers outside the ascent. *)

val lagrangian_costs : Covering.Matrix.t -> float array -> float array
(** [c̃_j = c_j − Σ_{i ∈ rows(j)} λ_i]. *)

val evaluate : ?dense:Covering.Dense.t -> Covering.Matrix.t -> float array -> eval
(** Full evaluation at λ by the {!primal} kernel.  It allocates the
    arrays it returns (plus the column set of [dense], if any) and never
    computes the caps.  [dense] must mirror the matrix (checked
    physically); the result is bit-identical either way.
    @raise Invalid_argument on length mismatch, a negative multiplier,
    or a mirror of a different matrix. *)

val min_covering_costs : Covering.Matrix.t -> float array
(** [c̄_i = min_{j : a_ij = 1} c_j] — the dual variable caps of problem (D). *)

val dual_value : float array -> float
(** [w(m) = Σ m_i] — objective of the dual problem. *)

val dual_feasible : ?eps:float -> Covering.Matrix.t -> float array -> bool
(** Is [m ≥ 0] with [A'm ≤ c] (within [eps], default 1e-9)?  Any feasible
    [m] is a valid multiplier vector with [z_LP(m) = w(m)] (paper §3.3). *)

val dual_lagrangian_value : Covering.Matrix.t -> mu:float array -> float
(** The dual-side relaxation (LD) of §3.3: for μ ≥ 0 (one per column),
    [w_LD(μ) = Σ_i max(ẽ_i, 0)·c̄_i + Σ_j μ_j c_j] with [ẽ = e − Aμ];
    an {e upper} bound on z_P*.  Computed by the {!dual} kernel. *)

val dual_lagrangian_subgradient : Covering.Matrix.t -> mu:float array -> float array
(** Subgradient of [w_LD] at μ: [g_j = c_j − Σ_i a_ij m*_i] where [m*] is
    the inner maximiser ([m*_i = c̄_i] when [ẽ_i > 0], else 0).  Computed
    by the {!dual} kernel. *)
