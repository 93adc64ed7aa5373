(** Heuristic column-fixing rules (paper §3.7).

    After a subgradient phase the algorithm must commit to at least one
    column.  Two signals mark a column as likely optimal: a (near-)zero
    Lagrangian cost and a dual-side multiplier close to 1 (the μ vector
    approximates the fractional primal optimum).  Columns passing both
    thresholds are "promising" and fixed together; in any case the column
    minimising σ_j = c̃_j − α·μ_j is fixed to guarantee progress, chosen
    deterministically on the first run and among the [best_cols] top-rated
    columns on later randomised runs. *)

val default_c_hat : float
(** ĉ = 0.001. *)

val default_mu_hat : float
(** μ̂ = 0.999. *)

val default_alpha : float
(** α = 2. *)

val promising :
  ?c_hat:float ->
  ?mu_hat:float ->
  Covering.Matrix.t ->
  reduced_costs:float array ->
  mu:float array ->
  int list
(** Columns with [c̃_j ≤ ĉ] and [μ_j ≥ μ̂] (indices, ascending). *)

val sigma :
  ?alpha:float -> reduced_costs:float array -> mu:float array -> unit -> float array
(** The rating vector σ = c̃ − α·μ (lower is better). *)

val best_columns : sigma:float array -> exclude:bool array -> k:int -> int list
(** Indices of the [k] lowest-σ columns in (σ, index) order among those
    [exclude] does not mark [true] (ties towards lower index; nan sorts
    first, as under [compare]); fewer when fewer are left.  One pass
    with [k] slots: O(n·k). *)

val pick :
  ?alpha:float ->
  best_cols:int ->
  rand:(int -> int) ->
  Covering.Matrix.t ->
  reduced_costs:float array ->
  mu:float array ->
  int
(** The column to fix: σ-best when [best_cols = 1], otherwise a uniform
    random choice (via [rand], a [bound -> value] generator) among the
    [best_cols] best-rated columns. *)
