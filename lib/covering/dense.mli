(** Packed bitset (bit-slice) representation of a covering matrix.

    The cyclic cores that survive reduction are small and dense — exactly
    the regime where DenseQMC-style bit-slicing beats pointer and index
    structures: a dominance check becomes a word-wise subset test
    [a AND NOT b = 0], a greedy fresh-row count a popcount, the
    subgradient's per-row covered count a popcount of [row AND solution].

    Two flat planes of native [int] words ({!word_bits} = [Sys.int_size]
    bits each, 63 on 64-bit): a row-major mirror (bit [j] of row [i]) and
    a column-major mirror (bit [i] of column [j]).  The structure is a
    read-only {e mirror} of an immutable {!Matrix.t}; every kernel is
    written so float accumulations visit indices in ascending order,
    keeping results bit-identical to the sparse code paths.

    {!attach} is the adaptive dispatch point: it builds a mirror only for
    matrices below the size threshold and above the density where word
    scans beat element walks.  Callers thread the resulting
    [option] through; [None] means "stay on the sparse path". *)

val word_bits : int
(** Bits per word ([Sys.int_size]; 63 on 64-bit platforms). *)

val popcount : int -> int
(** Number of set bits, valid for every [int] including negative ones
    (bit 62 set). *)

val words_for : int -> int
(** Words needed for an [n]-bit bitset. *)

type t
(** An immutable bitset mirror of a {!Matrix.t}. *)

(** {1 Adaptive dispatch} *)

val default_threshold : int
(** Default cap on [rows * cols] for building a mirror (2{^20} cells ≈
    260 KB of mirror; cyclic cores are far below it, the huge sparse
    instances far above). *)

val min_density : float
(** Density below which a word scan does more work than the sparse
    element walk ([1 / word_bits]). *)

val eligible : ?threshold:int -> Matrix.t -> bool
(** Would {!attach} build a mirror?  True iff the matrix is non-empty,
    [rows * cols <= threshold] (default {!default_threshold}; [0]
    disables dense entirely) and density is at least {!min_density}. *)

val attach : ?threshold:int -> Matrix.t -> t option
(** The dispatch point: a mirror when {!eligible}, [None] otherwise. *)

val of_matrix : Matrix.t -> t
(** Unconditional O(rows·cols/word_bits) build (tests, benchmarks). *)

val matrix : t -> Matrix.t
(** The mirrored matrix (physically the {!of_matrix} argument); kernels
    taking both check this identity. *)

val words : t -> int
(** Total words held by both planes (the [dense.words] gauge unit). *)

(** {1 Membership} *)

val row_mem : t -> int -> int -> bool
(** [row_mem t i j] — does row [i] contain column [j]? *)

val col_mem : t -> int -> int -> bool
(** [col_mem t j i] — does column [j] cover row [i]? *)

(** {1 Dominance kernels} *)

val row_subset : t -> int -> int -> bool
(** [row_subset t i i'] — is every column of row [i] on row [i']?
    O(words per row). *)

val col_subset : t -> int -> int -> bool

(** {1 Scratch sets}

    A "row set" is a bitset over row indices (words_for n_rows words), a
    "column set" over column indices.  Plain [int array]s so callers can
    reuse them across rounds. *)

val make_row_set : t -> int array
val make_col_set : t -> int array
val set_bit : int array -> int -> unit
val mem_bit : int array -> int -> bool

(** {1 Greedy kernels} *)

val col_fresh : t -> int -> covered:int array -> int
(** Rows of column [j] outside the [covered] row set — the greedy
    [n_fresh], one popcount per word. *)

val fresh_sum : t -> int -> covered:int array -> float array -> float
(** [fresh_sum t j ~covered w] — the sum of [w.(i)] over those rows,
    added in ascending row order, so it equals the same fold over the
    sparse column list bit for bit. *)

val cover_col : t -> int -> covered:int array -> int
(** Fold column [j] into [covered]; returns the number of rows that were
    fresh. *)

(** {1 Subgradient kernel} *)

val row_hits : t -> int -> cols:int array -> int
(** [row_hits t i ~cols] — |row i ∩ cols|: the covered-count of the
    reduced-cost sweep, one popcount per word. *)

(** {1 Telemetry accounting} *)

val built_total : int Atomic.t
(** Mirrors built by this process (immutable and mutable), the
    [dense.components] gauge. *)

val words_total : int Atomic.t
(** Words allocated across all mirrors, the [dense.words] gauge. *)

(** {1 Mutable mirror for {!Sparse}} *)

(** The same two planes kept in sync through {!Sparse} deletions and
    Gimpel column appends, so {!Sparse.row_subset} /
    {!Sparse.col_subset} — the dominance hot loop of {!Reduce2} — run on
    words.  Maintenance protocol (one plane per operation, mirroring the
    one-list-at-a-time splices of {!Sparse}):

    - [delete_row i] clears bit [i] from every live column's bitset
      ({!Mut.clear_in_col}); the row's own bitset is kept, like its
      element list;
    - [delete_col j] clears bit [j] from every live row's bitset
      ({!Mut.clear_in_row});
    - appended columns call {!Mut.ensure_col} first.

    Liveness is {e not} tracked here: Sparse only compares live lines,
    and the protocol above keeps each plane's live-line incidences
    exact at all times. *)
module Mut : sig
  type t

  val create : n_rows:int -> n_cols:int -> t
  val words : t -> int

  val set : t -> int -> int -> unit
  (** Set element (i, j) in both planes (initial build, [add_col]). *)

  val clear_in_col : t -> int -> int -> unit
  val clear_in_row : t -> int -> int -> unit

  val ensure_col : t -> int -> unit
  (** Make column slot [j] usable: grow the column plane / widen row
      bitsets as needed. *)

  val row_subset : t -> int -> int -> bool
  val col_subset : t -> int -> int -> bool
  val row_mem : t -> int -> int -> bool
  val col_mem : t -> int -> int -> bool
end
