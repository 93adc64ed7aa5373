(** Mutable doubly-linked sparse covering matrix (the espresso [mincov]
    representation).

    Each nonzero element sits on two circular doubly-linked lists — its
    row's (ordered by column index) and its column's (ordered by row
    index) — so deleting a line is O(elements on that line) and touches
    only the lines that actually intersect it.  This is the substrate of
    the incremental reduction engine {!Reduce2}: the immutable
    {!Matrix.t} rebuild-the-world cost of one reduction pass becomes a
    handful of pointer splices.

    Row and column {e indices} are stable for the lifetime of the
    structure (dead lines keep their slot); columns appended by Gimpel's
    reduction get fresh indices past the original ones.  Identifiers and
    costs travel with the lines exactly as in {!Matrix}. *)

type t

val of_matrix : ?dense:bool -> Matrix.t -> t
(** O(nnz) conversion; the input matrix is not retained.  With
    [~dense:true] a {!Dense.Mut} bitset mirror is built and kept in sync
    through every mutation, turning {!row_subset} /
    {!col_subset} — the dominance hot loop — into word-parallel scans.
    Results are identical either way; the mirror costs
    O(rows·cols/word) memory, so callers gate it on matrix size (see
    {!Dense.eligible}).  Default [false]. *)

val has_mirror : t -> bool
(** Is a bitset mirror attached? *)

val to_matrix : t -> Matrix.t
(** The live submatrix as an immutable {!Matrix.t}: surviving rows and
    columns in increasing index order, identifiers and costs preserved —
    byte-for-byte the matrix {!Matrix.submatrix} would build. *)

(** {1 Dimensions and line accessors} *)

val n_rows : t -> int
(** Row capacity (live and dead). *)

val n_cols : t -> int
(** Column capacity (live and dead, including appended columns). *)

val rows_alive : t -> int
val cols_alive : t -> int
val row_alive : t -> int -> bool
val col_alive : t -> int -> bool

val row_len : t -> int -> int
(** Live elements on row [i]; O(1). *)

val col_len : t -> int -> int
val cost : t -> int -> int
val row_id : t -> int -> int
val col_id : t -> int -> int

val iter_row : t -> int -> (int -> unit) -> unit
(** Column indices of row [i], ascending.  Deletions splice around an
    element without clearing its own links, so the walk survives
    {!delete_row}/{!delete_col} calls made by the callback — and works
    on a freshly dead line, whose own list deletion leaves intact.  The
    callback must not {!add_col} mid-walk. *)

val iter_col : t -> int -> (int -> unit) -> unit
val row_list : t -> int -> int list
val col_list : t -> int -> int list

val first_col_of_row : t -> int -> int
(** Lowest column index on row [i].  @raise Invalid_argument on an empty
    or dead row. *)

val rarest_col_of_row : t -> int -> int
(** The column of row [i] with the fewest live elements — the candidate
    filter of the dominance checks. *)

val shortest_row_of_col : t -> int -> int
(** The row of column [j] with the fewest live elements. *)

val row_subset : t -> int -> int -> bool
(** [row_subset t i i'] — is every column of row [i] also on row [i']?
    O(|row i'|) merge walk. *)

val col_subset : t -> int -> int -> bool
(** [col_subset t j j'] — is every row of column [j] also on column
    [j']? *)

(** {1 Mutation} *)

val delete_row : t -> int -> unit
(** Unlink row [i] from every column list and mark it dead; O(row
    length).  @raise Invalid_argument if already dead. *)

val delete_col : t -> int -> unit
(** Unlink column [j] from every row list and mark it dead.  The caller
    is responsible for not emptying a live row (reductions never do). *)

val add_col : t -> cost:int -> id:int -> rows:int list -> int
(** Append a fresh column covering [rows] (strictly ascending live row
    indices) and return its index — Gimpel's virtual column.  Cost must
    be positive. *)

(** {1 Invariants} *)

val check : t -> unit
(** Assert internal consistency: doubly-linked agreement in both
    directions, ordered lists, length counters, alive flags and the
    live-element count — {!Matrix.transpose_check} for the mutable
    representation.  For tests. *)
