(** Sparse covering matrices.

    The unate covering problem (M, P, R, c) of the paper: a 0/1 matrix [A]
    with |M| rows and |P| columns, a positive integer cost per column, and
    the task of selecting a minimum-cost set of columns such that every row
    contains at least one selected column.

    The matrix is immutable; reductions build new matrices.  Each row and
    column carries the identifier it had in the {e original} problem, so a
    solution of a reduced matrix can be reported in terms of the problem
    the user posed.  Column identifiers at or above [id_base] denote
    virtual columns introduced by Gimpel's reduction (see {!Reduce}). *)

type t = private {
  n_rows : int;
  n_cols : int;
  rows : int array array;  (** per row: sorted indices of covering columns *)
  cols : int array array;  (** per column: sorted indices of covered rows *)
  cost : int array;  (** per column: positive cost *)
  row_ids : int array;  (** per row: identifier in the original problem *)
  col_ids : int array;  (** per column: identifier in the original problem *)
  id_index : (int, int) Hashtbl.t Lazy.t;
      (** lazy inverse of [col_ids], built on the first {!col_index_of_id} *)
  drop_order : int array Atomic.t;
      (** {!irredundant}'s drop order, sorted on its first call ([[||]]
          until then) *)
}

val create : ?cost:int array -> n_cols:int -> int list list -> t
(** [create ~n_cols rows] builds a matrix from the list of rows, each a
    list of column indices in [0 .. n_cols-1].  Cost defaults to uniform 1.
    Fresh identifiers [0 .. n-1] are assigned to rows and columns.
    @raise Invalid_argument on empty rows, out-of-range indices,
    non-positive costs, or duplicate indices within a row. *)

val of_sets : ?cost:int array -> n_cols:int -> Zdd.t -> t
(** Decode a rows-family ZDD (each member set = one row of column indices)
    into an explicit matrix — the paper's [Decode] step. *)

val to_zdd : t -> Zdd.t
(** Encode the rows as a ZDD over column {e indices} (not identifiers),
    in one bottom-up pass ({!Zdd.of_arrays}): the unique table gains
    exactly the result's nodes. *)

val canonical : t -> t
(** The rows in the order decoding their ZDD gives them, without
    building it: rows compare element by element, the smaller element
    first, and a proper prefix sorts after its extensions; duplicate
    rows are merged and the rows get fresh identifiers [0 .. n-1].
    Columns, their identifiers and costs are unchanged.  On a matrix
    with fresh column identifiers the result equals
    [of_sets ~cost ~n_cols (to_zdd m)].
    @raise Invalid_argument on an empty row, as {!of_sets} does. *)

val submatrix : t -> keep_rows:bool array -> keep_cols:bool array -> t
(** Restriction, preserving identifiers.  Rows that lose all their columns
    are dropped silently only if not kept; a kept row left without columns
    raises [Invalid_argument] (the caller must not make the problem
    infeasible). *)

val add_virtual_column : t -> cost:int -> id:int -> rows:int list -> t
(** Append one column (Gimpel's reduction).  [rows] are row indices. *)

val of_parts :
  n_cols:int ->
  rows:int array array ->
  cost:int array ->
  row_ids:int array ->
  col_ids:int array ->
  t
(** Assemble a matrix from pre-validated parts, preserving the given
    identifiers — the bridge used by {!Sparse.to_matrix} to hand a mutable
    worklist core back as an ordinary immutable matrix.  Each row must be a
    sorted array of in-range column indices; only array lengths are
    checked. *)

(** {1 Accessors} *)

val n_rows : t -> int
val n_cols : t -> int
val row : t -> int -> int array
val col : t -> int -> int array
val cost : t -> int -> int
val row_id : t -> int -> int
val col_id : t -> int -> int
val col_index_of_id : t -> int -> int option
(** Inverse of {!col_id} on the current matrix. *)

val is_empty : t -> bool
(** No rows left — every constraint discharged. *)

val density : t -> float
(** Fraction of ones: nnz / (rows × cols). *)

val nnz : t -> int

(** {1 Solutions} *)

val covers : t -> int list -> bool
(** [covers m cols]: do the given column {e indices} cover every row? *)

val cost_of : t -> int list -> int
(** Total cost of the column indices (no deduplication check). *)

val cost_of_ids : original:t -> int list -> int
(** Total cost of a solution expressed as {e identifiers} of [original]. *)

val uncovered : t -> int list -> int list
(** Rows (indices) not covered by the given column indices. *)

val irredundant : t -> int list -> int list
(** Drop redundant columns from a cover greedily, most expensive first
    (ties: higher index first) — the paper's final "while p_best is
    redundant" loop.  The result is sorted, covers every row, and does
    not depend on the order of the input or on duplicates in it.  The
    drop order is sorted once per matrix, not once per call.
    @raise Invalid_argument on an out-of-range column (from {!covers})
    or if the input is not a cover. *)

val prune : t -> chosen:bool array -> times:int array -> int
(** {!irredundant} in place, on a cover given as a column mask:
    [chosen] (one flag per column; it must cover every row, unchecked)
    loses exactly the columns {!irredundant} would drop, [times] (one
    entry per row) is scratch, and the result is the cost of the columns
    left.  It allocates nothing, so an ascent can prune its relaxed
    covers in buffers it owns.
    @raise Invalid_argument on a buffer of the wrong length. *)

val transpose_check : t -> unit
(** Internal-consistency assertion (rows/cols agreement); for tests. *)

val pp : Format.formatter -> t -> unit
