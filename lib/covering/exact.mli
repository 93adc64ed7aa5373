(** Exact branch-and-bound solver for unate covering.

    Our stand-in for {e Scherzo}'s explicit phase (Coudert, DAC'96): at each
    node the matrix is reduced to its cyclic core, a maximal-independent-set
    lower bound is computed, the {e limit bound theorem} (paper Theorem 2)
    prunes columns, and branching enumerates the columns of a shortest row
    (n-ary branching with left-exclusion, the classical covering scheme).

    The solver certifies optimality; it is the oracle used by the test
    suite and the "Scherzo" column of the Table 3/4 benches.  A node budget
    bounds runtime on the challenging instances — when exhausted, the best
    incumbent and the proven lower bound are reported with
    [optimal = false]. *)

type result = {
  solution : int list;  (** original column identifiers, sorted *)
  cost : int;
  optimal : bool;  (** proven optimal within the node budget *)
  nodes : int;  (** branch-and-bound nodes expanded *)
  lower_bound : int;  (** proven global lower bound (= cost if optimal) *)
}

val solve :
  ?budget:Budget.t ->
  ?ub:int ->
  ?max_nodes:int ->
  ?gimpel:bool ->
  ?extra_bound:(Matrix.t -> int) ->
  Matrix.t ->
  result
(** [solve m] minimises.  [budget] checkpoints every branch-and-bound
    node (site {!Budget.Exact_bb}); its node budget and wall-clock
    deadline subsume the per-call [max_nodes] cap, and a trip behaves
    exactly like node exhaustion — the best incumbent (or a greedy
    fallback) is returned with [optimal = false] and a valid
    [lower_bound].  [ub] primes the incumbent with a known upper
    bound (exclusive pruning still keeps an incumbent {e solution} only if
    one is found at or below it); [max_nodes] defaults to 200_000;
    [gimpel] (default true) enables Gimpel's reduction inside node
    reductions; [extra_bound], when given, is evaluated on each node's
    cyclic core and its value is combined (max) with the MIS bound for
    pruning — inject {!Bounds.strengthened_mis} for the
    Goldberg/Coudert-style stronger pruning.  The limit-bound column
    filter (paper Theorem 2) always uses the MIS bound alone: the
    theorem holds only for the independent rows it checks.
    @raise Invalid_argument on an infeasible matrix (cannot happen for
    well-formed matrices: every row is non-empty by construction). *)

val brute_force : Matrix.t -> int list
(** Exhaustive optimum by subset enumeration over columns (≤ 20 columns);
    the oracle's oracle for tests.  Returns original identifiers. *)
