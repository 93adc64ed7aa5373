(** From two-level logic to unate covering (the Quine–McCluskey bridge).

    Builds the covering problem of the paper's §2: rows are the ON-set
    minterms of an incompletely specified function, columns are its prime
    implicants, and entry (i, j) is set when prime [j] covers minterm [i].
    Don't-care minterms never become rows (they need not be covered), but
    primes may exploit them; a minterm listed in both the ON and DC planes
    counts as don't-care, matching espresso's fd semantics
    (ON∖DC ⊆ realised function ⊆ ON∪DC).

    Cost: {!build} and {!build_multi} mark the care ON-minterms in a
    2ⁿ-bit vector ({!Logic.Cover.minterms}) and test every (row, prime)
    pair with one AND and one compare against the prime's
    {!Logic.Cube.masks} (plus one output bit for multi-output primes):
    O(2ⁿ/63 + Σ 2{^free} + rows · primes) after prime generation, which
    ({!Logic.Primes.of_covers}, {!Logic.Multi.primes}) is then the
    larger part.  {!build_implicit} costs one node-free
    {!Bdd.intersects} test per (region, prime) pair and BDD operations
    only for the pairs that meet.

    Intended for benchmark-sized functions (the explicit minterm expansion
    bounds inputs at 24); the covering machinery downstream is independent
    of where the matrix came from. *)

type t = {
  matrix : Matrix.t;
  primes : Logic.Cube.t array;  (** column [j] of the matrix is [primes.(j)] *)
  minterms : int array;  (** row [i] is this ON-minterm (value bitmask) *)
}

val literal_cost : Logic.Cube.t -> int
(** Literal count per product. *)

val lexicographic_cost : nvars:int -> Logic.Cube.t -> int
(** [(nvars + 1) + literals]: minimising this total cost minimises the
    product count first and the literal count second — the paper's
    "secondary concern given to the number of literals". *)

val build :
  ?telemetry:Telemetry.t ->
  ?cost:(Logic.Cube.t -> int) ->
  on:Logic.Cover.t ->
  dc:Logic.Cover.t ->
  unit ->
  t
(** Compute primes implicitly, expand ON-minterms, and assemble the
    matrix.  [cost] defaults to [fun _ -> 1] (the paper's product-count
    objective; pass e.g. [Cube.literal_count] for literal-weighted
    covering).  [telemetry] times the two halves as the spans
    ["bridge-primes"] (prime generation and decoding) and
    ["bridge-rows"] (rows and matrix), as {!build_implicit} and
    {!build_multi} do.
    @raise Invalid_argument beyond 24 inputs or if [on] is empty. *)

val build_pla : ?cost:(Logic.Cube.t -> int) -> Logic.Pla.t -> output:int -> t
(** Convenience: build for one output of a parsed PLA. *)

val cover_of_solution : t -> int list -> Logic.Cover.t
(** Interpret a solution (original column identifiers) as a cover. *)

val verify_solution : t -> int list -> bool
(** The selected primes cover the ON-set and stay inside ON ∪ DC. *)

(** {1 Implicit construction (no minterm enumeration)}

    {!build} expands the ON-set into minterms, which caps inputs at 24 and
    wastes rows: minterms covered by the same prime set impose the same
    constraint.  The implicit construction partitions the care ON-set by
    {e signature} — the set of primes covering a point — by refining BDD
    regions one prime at a time, and emits one row per distinct signature.
    This is how the implicit solvers avoid the Quine–McCluskey row
    explosion (paper §2); the matrix it produces is exactly {!build}'s
    matrix after duplicate-row removal. *)

type implicit_bridge = {
  imatrix : Matrix.t;
  iprimes : Logic.Cube.t array;  (** column [j] is [iprimes.(j)] *)
  iregions : Bdd.t array;  (** row [i] = the minterms sharing signature [i] *)
}

val build_implicit :
  ?telemetry:Telemetry.t ->
  ?cost:(Logic.Cube.t -> int) ->
  ?max_regions:int ->
  on:Logic.Cover.t ->
  dc:Logic.Cover.t ->
  unit ->
  implicit_bridge
(** No minterm enumeration anywhere: practical whenever the number of
    distinct signatures stays moderate, regardless of input count.
    Only a region that meets the prime is split with [band]/[bdiff];
    refinement alone keeps one region per signature, so no merge
    follows (doc/ALGORITHMS.md §14).  Each region keeps the cube its
    signature's primes share, and a region whose cube misses the prime
    is skipped by one mask test (up to 62 inputs) before the node-free
    {!Bdd.intersects} test decides the rest.  [telemetry] gets the
    ["bridge-primes"] and ["bridge-rows"] spans and counts the final
    regions (["bridge.regions"]) and the (region, prime) pairs the mask
    test skipped (["bridge.cube_skips"]).  [max_regions] (default
    50_000) guards against signature blow-up.
    @raise Invalid_argument if [on ∖ dc] is empty or the guard trips. *)

val verify_implicit : implicit_bridge -> int list -> bool
(** Exact BDD check: the chosen primes cover [on ∖ dc] and stay inside
    [on ∪ dc] (stronger than the sampled minterm check). *)

(** {1 Multi-output covering}

    The shared-product formulation for multi-output PLAs: rows are
    (minterm, output) pairs, columns are the output-tagged multi-output
    primes of {!Logic.Multi}, and one chosen prime is one PLA product row
    regardless of how many outputs it feeds. *)

type multi = {
  mmatrix : Matrix.t;
  mprimes : Logic.Multi.prime array;  (** column [j] is [mprimes.(j)] *)
  mrows : (int * int) array;  (** row [i] is the (minterm, output) pair *)
}

val build_multi : ?telemetry:Telemetry.t -> Logic.Pla.t -> multi
(** [telemetry] gets the ["bridge-primes"] and ["bridge-rows"] spans and
    the non-zero output subsets (["bridge.subsets"], {!Logic.Multi.primes}).
    @raise Invalid_argument beyond 24 inputs / 16 outputs, or if no output
    has any ON-minterm. *)

val verify_multi : multi -> int list -> bool
(** Every (minterm, output) row covered by a selected tagged prime. *)

val pla_of_multi_solution : Logic.Pla.t -> multi -> int list -> Logic.Pla.t
(** Render the selected primes as a minimised PLA (type fd, one row per
    product, '1' on the outputs each product feeds). *)
