(** Worklist-driven reduction to the cyclic core: the explicit-reduction
    engine of both solvers.

    The reductions (essential columns, row and column dominance,
    Gimpel's reduction) run on the mutable {!Sparse} representation
    with dirty-line worklists.  Deleting a column enqueues only the rows
    it touched for the essentiality / row-dominance re-check; deleting a
    row enqueues only the columns it touched for the column-dominance
    re-check.  Reaching the fixpoint therefore costs O(initial full scan
    + work proportional to what the reductions actually remove), where
    a pass-by-pass engine pays a full matrix scan {e and} a full rebuild
    per pass.

    The engine keeps the per-kind priorities of the pass-by-pass
    reading of the paper (essentials and row dominance to fixpoint,
    then one batched column dominance round, Gimpel only when nothing
    else applies, stop the moment no row is left), so tie-breaks
    resolve exactly as there; the test suite checks it against that
    pass engine, kept as its oracle. *)

val cyclic_core :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?gimpel:bool ->
  ?dense_threshold:int ->
  Matrix.t ->
  Reduce.result
(** Reduce to the cyclic core; [gimpel] defaults to [true].  Solutions
    of the core lift to the input through {!Reduce.lift}.  Every
    worklist step is a {!Budget.tick} checkpoint (site
    {!Budget.Explicit_reduce}); on a trip the fixpoint stops early and
    the partially reduced — still equivalent — matrix is returned as
    the core.  [telemetry] counts eliminations per rule
    ([reduce.cols_essential], [reduce.rows_covered_essential],
    [reduce.rows_dominated], [reduce.cols_dominated], [reduce.gimpel]).

    When the input is {!Dense.eligible} under [dense_threshold] (default
    {!Dense.default_threshold}; [0] forces the pure sparse path) the
    engine runs its dominance subset tests on a {!Dense.Mut} bitset
    mirror — same reductions, same core, word-parallel inner loops. *)
