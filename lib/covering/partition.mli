(** Partitioning into independent subproblems.

    If the bipartite row/column incidence graph of a covering matrix is
    disconnected, each connected component can be solved separately and the
    solutions concatenated — the oldest reduction in the covering
    literature (paper §2 lists it first).  Reductions frequently disconnect
    a matrix, so the solvers call this before branching. *)

type component = {
  rows : int list;  (** row indices of the component *)
  cols : int list;  (** column indices of the component *)
}

val components : Matrix.t -> component list
(** Connected components, each with at least one row.  Columns covering no
    row are not part of any component.  Components are ordered by their
    smallest row index. *)

val split : Matrix.t -> Matrix.t list
(** One submatrix per component (identifiers preserved). *)
