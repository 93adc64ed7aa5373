(** Chvátal-style greedy covering heuristics.

    The classical upper-bound procedure (Johnson/Lovász/Chvátal, paper §2):
    repeatedly select the column minimising a rating [γ(c_j, n_j)] of its
    cost [c_j] against the number [n_j] of still-uncovered rows it covers,
    until feasible; then drop redundant columns.

    The four rating rules of the paper's §3.5 are exposed so the Lagrangian
    layer can reuse them with Lagrangian costs; here they run with the
    plain integer costs. *)

type rule =
  | Cost_per_row  (** γ = c / n — Chvátal's rule *)
  | Cost_per_log  (** γ = c / log₂(n+1) *)
  | Cost_per_row_log  (** γ = c / (n·log₂(n+1)) *)
  | Weighted_rows
      (** γ = c / Σ_rows 1/(cover-count − 1): rows covered by few columns
          weigh more (paper §3.5, fourth rule) *)

val all_rules : rule list

val rate : rule -> cost:float -> n_fresh:int -> row_weight:float -> float
(** The rating value; lower is better.  [row_weight] is the denominator of
    {!Weighted_rows} (ignored by the other rules). *)

val cover : rule:rule -> ?dense:Dense.t -> Matrix.t -> costs:float array -> int list
(** The greedy selection shared by {!solve} and the Lagrangian greedy:
    every column with [costs.(j) <= 0.] is taken up front (ascending),
    then, while rows remain uncovered, the column minimising the rate —
    [rate rule] for positive costs, [c·n] for non-positive ones — with
    ties towards the lower index.  Returns the chosen columns in pick
    order, redundant ones included.

    The pick comes from a lazy min-heap on (rate, column): the popped
    column is re-rated from scratch and taken if its rate still equals
    its key, else pushed back with the new rate.  Every rate is
    non-decreasing as rows get covered (for [Weighted_rows] the weight
    is a float sum of positive terms over a shrinking row set), so a
    stale key is a lower bound, and each pick is exactly the strict-[<]
    ascending scan's (rate, index) minimum.  Columns whose rate is not
    below [+∞] (no fresh row, or a nan cost) are never picked.

    [dense] must mirror [m] (checked physically): fresh-row counts are
    then popcounts; the float sums stay in ascending row order, so the
    result is the same.
    @raise Infeasible.Infeasible naming the first uncovered row when no
    pickable column covers it.
    @raise Invalid_argument on a cost-length mismatch or a mirror of a
    different matrix. *)

val solve : ?rule:rule -> ?dense:Dense.t -> Matrix.t -> int list
(** A feasible, irredundant cover (column indices): {!cover} at the
    integer costs, then {!Matrix.irredundant} over the picks in pick
    order.  Default rule: {!Cost_per_row}.  Deterministic (ties towards
    lower index).  [dense] as in {!cover}.
    @raise Infeasible.Infeasible (re-exported as [Covering.Infeasible])
    when some row is covered by no column — possible only for matrices
    assembled from pre-validated parts, since {!Matrix.create} rejects
    empty rows.
    @raise Invalid_argument if [dense] mirrors a different matrix. *)

val solve_best : ?dense:Dense.t -> Matrix.t -> int list
(** Run all four rules, return the cheapest result. *)

val solve_exchange : ?rounds:int -> ?dense:Dense.t -> Matrix.t -> int list
(** {!solve_best} followed by 1-exchange local search: try replacing each
    chosen column with a cheaper column that preserves feasibility, then
    re-run irredundancy; repeat up to [rounds] (default 3) times.  The
    "Espresso strong"-grade baseline for pure-matrix instances.  [dense]
    accelerates the underlying {!solve_best}; the exchange passes are
    index scans either way. *)
