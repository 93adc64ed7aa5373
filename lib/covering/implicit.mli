(** Implicit covering-problem representation and reductions.

    The paper's [ZDD_Reductions] phase: the covering matrix is held as a
    single ZDD whose member sets are the rows (each row = the set of column
    indices covering it).  Under this encoding two of the classical
    reductions are single canonical-DAG operations:

    - {e row dominance}: a row that is a superset of another is redundant —
      [Zdd.minimal] deletes all of them at once;
    - {e essentiality}: singleton rows name essential columns —
      [Zdd.singletons]; fixing column [v] then removes every row containing
      [v] in one [Zdd.subset0].

    Column dominance needs the transposed view and is left to the explicit
    phase, exactly as the decode-when-small-enough switch of the paper's
    Figure 2 intends ([MaxR]/[MaxC]). *)

type t = {
  rows : Zdd.t;  (** family of rows over column indices *)
  n_cols : int;
  cost : int array;
  essential : int list;  (** column indices fixed so far, oldest first *)
}

val of_matrix : Matrix.t -> t
(** Encode an explicit matrix.  The matrix must carry fresh identifiers
    (identifiers = indices), which holds for matrices straight out of
    {!Matrix.create}.  The rows family is built by {!Matrix.to_zdd} in
    one bottom-up pass over the lexicographically sorted rows: the cost
    is the sort plus one unique-table lookup per distinct row prefix,
    the unique table gains exactly [Zdd.size] of the result and no
    garbage, and no collection runs. *)

val row_count : t -> float
val is_solved : t -> bool

val essential_step : t -> t option
(** Fix all currently essential columns; [None] if there are none. *)

val dominance_step : t -> t option
(** Remove dominated (superset) rows; [None] if the family is already an
    antichain. *)

val reduce :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> ?max_rows:int -> ?max_cols:int -> t -> t
(** Iterate essential/dominance steps while the matrix is above the
    guards — the loop of Figure 2: it stops once at most [max_rows] rows
    (paper [MaxR] = 5000) {e and} at most [max_cols] live columns (paper
    [MaxC] = 10000) remain, or when both steps are exhausted.  A family
    already within the guards comes back untouched, with no step run
    and no tick spent.  Every step is a {!Budget.tick} checkpoint
    (site {!Budget.Implicit_reduce}); on a trip the current, partially
    reduced problem is returned — equivalent to the input, merely less
    reduced.  [telemetry] counts [implicit.essential_steps],
    [implicit.dominance_steps] and [implicit.zdd_nodes_allocated] (the
    unique-table growth across this reduction).  Each step boundary is
    also a GC safe point: {!Zdd.Gc.maybe_collect} runs with the current
    family as root, so dead intermediate nodes are reclaimed once the
    allocation threshold is crossed (see {!Zdd.configure}). *)

val decode : t -> Matrix.t * int list
(** Explicit matrix (columns re-indexed to drop unused ones is {e not}
    done — indices are preserved) and the essential column indices. *)
