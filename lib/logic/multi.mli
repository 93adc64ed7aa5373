(** Multi-output prime implicants.

    The Berkeley benchmarks are multi-output PLAs (1–109 outputs): a single
    product term can feed several outputs, so minimising outputs
    independently misses sharing.  The classical model (Quine–McCluskey
    extended, cf. McCluskey 1956 and the espresso "multiple-valued output
    variable" encoding) works with {e output-tagged} cubes:

    a pair [(c, O)] of an input cube and a non-empty output set is an
    implicant iff [c] implies [ON_k ∪ DC_k] for every output [k ∈ O]; it is
    {e prime} iff no input literal can be raised (keeping implicancy for
    all of [O]) and no output can be added to [O].

    Generation goes through the single-output implicit engine: for each
    output set [O], the cubes that are implicants for all of [O] are the
    implicants of [⋀_{k∈O} care_k], whose primes {!Primes.of_bdd} already
    computes; a prime of that product function is a multi-output prime
    with tag [O] exactly when [O] is output-maximal for it.  The subset
    enumeration bounds the output count at 16 (the suite uses ≤ 8). *)

type prime = {
  cube : Cube.t;
  outputs : int list;  (** sorted, non-empty: the maximal output set *)
}

val equal_prime : prime -> prime -> bool
val compare_prime : prime -> prime -> int
val pp_prime : Format.formatter -> prime -> unit

val primes : ?telemetry:Telemetry.t -> Pla.t -> prime list
(** All multi-output primes of the PLA, sorted by {!compare_prime}.
    Each subset's product is one [Bdd.band] on a smaller subset's
    product, all subsets share one {!Primes.memo}, and each distinct
    cube is decoded and tagged once (doc/ALGORITHMS.md §2).
    [telemetry] counts the subsets with a non-zero product
    (["bridge.subsets"]).
    @raise Invalid_argument beyond 16 outputs or 24 inputs. *)

val is_implicant : Pla.t -> prime -> bool
(** Tag-aware implicant check (for tests: every returned prime satisfies
    it, and no prime can be grown). *)

val brute_force_primes : Pla.t -> prime list
(** Independent oracle: enumerate all 3ⁿ input cubes × output subsets and
    keep the maximal implicants.  Usable to ~6 inputs / 4 outputs. *)

val rows : Pla.t -> (int * int) list
(** The covering rows: pairs [(minterm, output)] with the minterm in
    [ON_k ∖ DC_k] — every one must be covered by a chosen prime whose
    output set contains [k] — sorted by minterm, then output, without
    repeats.  Each output's minterms come from {!Cover.minterms} (one
    2ⁿ-bit vector at a time), and a stable sort on the minterm
    interleaves them: O(m · (2ⁿ/63 + Σ 2{^free}) + rows · log rows) for
    [m] outputs. *)

val covers_row : prime -> int * int -> bool

val realised_cost : prime list -> int
(** Number of distinct product terms — the PLA row count the paper's cost
    function counts (a term shared by several outputs is one row). *)
