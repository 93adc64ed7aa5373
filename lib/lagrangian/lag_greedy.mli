(** Lagrangian greedy heuristics (paper §3.5, primal side).

    Starting from the (unfeasible) Lagrangian solution — every column with
    non-positive reduced cost — columns are added one at a time until the
    cover is feasible, choosing the column minimising one of the paper's
    four ratings of reduced cost against fresh-row count; finally redundant
    columns are dropped (by true cost).  Reduced costs weigh row importance
    through λ, which is why this beats the plain greedy once the
    multipliers are good. *)

val run :
  ?rule:Covering.Greedy.rule ->
  ?dense:Covering.Dense.t ->
  Covering.Matrix.t ->
  reduced_costs:float array ->
  int list
(** A feasible irredundant cover (column indices): the selection of
    {!Covering.Greedy.cover} at the reduced costs, then
    {!Covering.Matrix.irredundant} over the picks.
    Default rule {!Covering.Greedy.Cost_per_row}.  For columns with
    negative reduced cost the ratio rules would invert preference, so
    they are rated by [c̃·n] instead (more coverage, more negative — the
    Balas–Ho convention).  Each pick comes off a lazy (rate, column)
    min-heap: a popped column is re-rated and taken if its rate is
    unchanged, else pushed back — exactly the lowest-index minimum an
    ascending scan would pick, without re-rating every column for every
    pick.  [dense] must mirror [m] (checked physically):
    fresh-row counts then run by popcount, with identical results.
    @raise Invalid_argument on a reduced-cost length mismatch or a
    mirror of a different matrix. *)

val run_all_rules :
  ?dense:Covering.Dense.t ->
  Covering.Matrix.t ->
  reduced_costs:float array ->
  int list
(** Best result across the four rules (by true cost). *)
