(** Covers: sums of products over a fixed set of input variables.

    A cover is the two-level representation manipulated by the espresso
    baseline and by the minimisation front end: an unordered collection of
    {!Cube}s, all of the same arity.  Operations follow the classical
    recursive paradigm (Shannon expansion on a selected variable) described
    in Brayton et al., "Logic Minimization Algorithms for VLSI Synthesis". *)

type t
(** An immutable cover.  The empty cover denotes the constant-false
    function. *)

val of_cubes : int -> Cube.t list -> t
(** [of_cubes n cubes] builds a cover over [n] variables.
    @raise Invalid_argument if some cube has a different arity. *)

val empty : int -> t
val universe : int -> t
(** Single-cube tautology. *)

val nvars : t -> int
val cubes : t -> Cube.t list
val size : t -> int
(** Number of cubes (the UCP cost function of the paper). *)

val literal_cost : t -> int
(** Total number of literals (the paper's secondary cost concern). *)

val is_empty : t -> bool
val mem : Cube.t -> t -> bool
val add : Cube.t -> t -> t
val union : t -> t -> t
val pp : Format.formatter -> t -> unit

(** {1 Semantics} *)

val eval_minterm : t -> int -> bool
(** [eval_minterm f m]: value of the cover on the minterm with value
    bitmask [m] ([nvars ≤ 62]). *)

val to_bdd : t -> Bdd.t
(** Characteristic function. *)

val equal_semantics : t -> t -> bool
(** Functional equivalence (via BDDs). *)

val minterms : ?except:t -> t -> int list
(** The minterms of [f] outside [except] (default: none), as value
    bitmasks in ascending order.  Each cube's minterms are marked in one
    2ⁿ-bit vector (2 MB at the 24-variable cap), the cubes of [except]
    clear theirs, and the vector is read back: O(2ⁿ/63 + Σ 2{^free}) over
    the cubes of both covers, against O(2ⁿ · n) per cube for a
    point-by-point {!eval_minterm} scan.
    @raise Invalid_argument beyond 24 variables or when [except] has
    another arity. *)

(** {1 Recursive cover algebra} *)

val cofactor : t -> by:Cube.t -> t
(** Espresso cover cofactor: cubes intersecting [by], each cofactored.
    [f] restricted to the subspace of [by]. *)

val is_tautology : t -> bool
(** Unate-recursive tautology check. *)

val covers_cube : t -> Cube.t -> bool
(** [covers_cube f c] iff every minterm of [c] satisfies [f]
    (tautology of the cofactor — no minterm enumeration). *)

val covers : t -> t -> bool
(** [covers f g] iff [g ⊆ f] as sets of minterms. *)

val complement : t -> t
(** A cover of the complement function, by Shannon recursion with
    single-cube (De Morgan) leaves and cube merging on the way up. *)

val single_cube_containment : t -> t
(** Remove every cube subsumed by another single cube of the cover. *)

val sharp : t -> Cube.t -> t
(** [sharp f c]: a cover of [f ∧ ¬c] (disjoint sharp). *)

val select_binate_var : t -> int option
(** The most binate variable (appears in both phases, maximising the
    minimum phase count), or the most frequent literal variable if the
    cover is unate; [None] when no cube has any literal. *)
