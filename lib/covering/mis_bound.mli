(** Maximal-independent-set lower bound.

    The classical VLSI covering bound (paper §2, §3.4): choose a set of
    pairwise non-intersecting rows (no two share a column); any cover pays
    at least the cheapest column of each such row, so

    {v LB_MIS = Σ_{i ∈ MIS} min_{j : a_ij = 1} c_j v}

    Finding a maximum independent set is itself NP-hard; as in the
    literature a greedy maximal set is used (fewest-conflicts-first).
    Proposition 1 of the paper places this bound at the bottom of the
    hierarchy: LB_MIS ≤ LB_dual-ascent ≤ LB_Lagrangian ≤ LB_LP ≤ OPT, with
    the first two equal under uniform costs. *)

type t = {
  rows : int list;  (** the independent rows (indices) *)
  bound : int;  (** the lower bound value *)
}

val compute : Matrix.t -> t
(** Greedy maximal independent set: repeatedly take the live row with
    the fewest live neighbours (rows sharing a column with it), ties
    broken toward the larger cheapest-column cost and then the lower
    index, and drop it and its neighbours.  [rows] lists the picks in
    pick order.

    The tie rule is part of the contract, not a detail: the dual
    ascent's seed ([Lagrangian.Dual_ascent.run]) and {!Exact}'s
    limit-bound filter read this exact list, so another maximal set,
    even one with the same bound, changes their answers.

    Time O(Σ_j |col_j|² + n·|MIS|) for n rows: each row's neighbours
    are counted once, each row dies once and then walks its columns,
    and each pick scans the live rows.  Memory O(n + columns) besides
    the matrix: no neighbour set is stored. *)

val bound_of_rows : Matrix.t -> int list -> int
(** The bound value of a given independent row set.
    @raise Invalid_argument if the rows are not pairwise independent. *)

val is_independent : Matrix.t -> int list -> bool
