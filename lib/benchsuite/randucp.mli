(** Seeded random covering matrices.

    Two flavours:
    - {!reducible} matrices contain singleton rows, nested rows and
      dominated columns on purpose, so the reduction engine solves most of
      them outright — the profile of the paper's {e easy cyclic} category;
    - {!cyclic} matrices are row-regular (every row has exactly [k]
      columns drawn near-uniformly) which defeats essentiality and makes
      dominance rare — the {e difficult}/{e challenging} profile.  Larger
      sizes with mild cost spread model the unsolved instances. *)

val reducible :
  name:string -> n_rows:int -> n_cols:int -> unit -> Covering.Matrix.t

val cyclic :
  name:string ->
  n_rows:int ->
  n_cols:int ->
  k:int ->
  ?cost_spread:int ->
  unit ->
  Covering.Matrix.t
(** [cost_spread] = 0 (default) gives uniform cost 1; otherwise costs are
    uniform in [1, 1 + cost_spread]. *)

val dense_cyclic :
  name:string ->
  n_rows:int ->
  n_cols:int ->
  density:float ->
  ?cost_spread:int ->
  unit ->
  Covering.Matrix.t
(** Row-regular like {!cyclic} but with every row covering a [density]
    fraction of the columns (k = density·n_cols distinct draws, k ≥ 2)
    instead of a small constant — the profile of the dense cyclic cores
    that the bit-slice kernels ({!Covering.Dense}) target: essentiality
    still impossible, dominance still rare, but every subset test and
    cover count walks a long support.  [density] must lie in (0, 1);
    keep it ≤ 0.5 so the rejection sampler stays cheap.  [cost_spread]
    as in {!cyclic}. *)

val beasley :
  name:string ->
  n_rows:int ->
  n_cols:int ->
  rows_per_col:int ->
  ?cost_spread:int ->
  unit ->
  Covering.Matrix.t
(** OR-Library-style set covering (Beasley's scp generator): columns are
    drawn first, each covering [rows_per_col] random rows; every row is
    then guaranteed at least two covering columns: the column-heavy
    shape, thousands of candidate columns over few constraints, where
    the subgradient sweeps every column at each step.
    [cost_spread] as in {!cyclic} (default 9: costs 1-10, Beasley's
    convention scaled down). *)

val vertex_cover :
  name:string -> n_vertices:int -> n_edges:int -> unit -> Covering.Matrix.t
(** Vertex cover of a random simple graph: rows are edges (always k = 2),
    columns are vertices, uniform cost.  The classical source of large
    LP integrality gaps (up to 2).  Self-loops excluded; duplicate edges
    collapse, so the matrix may have fewer than [n_edges] rows.
    @raise Invalid_argument when [n_vertices < 2]. *)

(** {1 Adversarial scale generators}

    The families behind the [scale] benchmark tier: shapes chosen to
    stress a specific subsystem at sizes where asymptotics, not
    constants, decide the outcome. *)

val powerlaw :
  name:string ->
  n_rows:int ->
  n_cols:int ->
  ?alpha:float ->
  ?cost_spread:int ->
  unit ->
  Covering.Matrix.t
(** Bounded-Pareto column degrees on [1, n_rows] with exponent [alpha]
    (default 2.1, must be > 1): a few hub columns cover large row
    fractions while the long tail covers one or two rows — the
    crew-pairing shape where greedy scores and dominance point in
    opposite directions.  Rows are repaired to ≥ 2 covering columns as
    in {!beasley}.  With [cost_spread] > 0 (default 9) hub columns cost
    extra in proportion to degree/4, so neither "grab the hub" nor
    "stitch the tail" is trivially optimal.
    @raise Invalid_argument when [alpha ≤ 1] or either dimension < 2. *)

val planted :
  name:string ->
  blocks:int ->
  rows_per_block:int ->
  decoys_per_block:int ->
  ?cross:int ->
  unit ->
  Covering.Matrix.t * int
(** Planted-optimum instance with a provable cost certificate, returned
    as [(matrix, optimum)].

    Construction: [blocks] independent blocks of [rows_per_block] rows.
    Each block has one {e planted} column of cost 2 covering the whole
    block, plus [decoys_per_block] (= g ≥ 3) cost-1 {e decoy} columns
    partitioning the block's rows into g nonempty chunks.  Covering a
    block without its planted column requires all g decoys (they
    partition the rows), costing g ≥ 3 > 2, so per block the planted
    column is the strict optimum.  [cross] extra columns (default 0)
    each touch a nonempty row subset of t ∈ {2, 3} random blocks at
    cost 2t + 1: replacing a cross column by the t planted columns of
    the blocks it touches covers at least as many rows for cost
    2t < 2t + 1, so no optimal cover uses one.  Hence the optimum is
    {e exactly} [2 · blocks] — an end-to-end correctness oracle at
    sizes where exact solvers cannot confirm it.
    @raise Invalid_argument when [blocks < 1],
    [decoys_per_block < 3], [rows_per_block < decoys_per_block], or
    [cross > 0] with fewer than 2 blocks. *)

val multi_component :
  name:string ->
  parts:int ->
  rows_per_part:int ->
  cols_per_part:int ->
  ?k:int ->
  ?cost_spread:int ->
  unit ->
  Covering.Matrix.t
(** Block-diagonal union of [parts] independent {!cyclic} instances
    (row degree [k], default 3; [cost_spread] as in {!cyclic}), each
    seeded from ["name.partN"].  The connected components are exactly
    the parts, so {!Covering.Partition} should split it into [parts]
    components — sized for the component split.
    @raise Invalid_argument when [parts < 1]. *)
