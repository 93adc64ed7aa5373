(** Ternary cubes in positional-cube notation.

    A cube over [n] Boolean inputs is a product term: each variable is
    either a positive literal, a negative literal, or absent (don't-care).
    Following espresso, a cube is stored as a 2[n]-bit vector with two bits
    per variable — "value 1 allowed" and "value 0 allowed":

    - [10] → positive literal (variable must be 1),
    - [01] → negative literal (variable must be 0),
    - [11] → don't care,
    - [00] → empty cube (never stored; operations return [option]).

    With this encoding intersection is bitwise AND, containment is the
    bit-subset test, and the espresso distance/consensus operations are a
    couple of word-wise passes. *)

type t
(** A non-empty cube.  Immutable value semantics. *)

type phase =
  | Zero  (** negative literal *)
  | One  (** positive literal *)
  | Dash  (** variable absent *)

val universe : int -> t
(** [universe n]: the cube with all [n] variables absent (covers everything). *)

val of_literals : int -> (int * bool) list -> t
(** [of_literals n lits] builds a cube from literals; [(i, true)] is a
    positive literal.  @raise Invalid_argument on contradictory or
    out-of-range literals. *)

val of_string : string -> t
(** Parse espresso input-plane syntax: characters ['0'], ['1'], ['-'] (or
    ['~']); e.g. ["1-0"] is x₀ ∧ ¬x₂ over three variables. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val nvars : t -> int
val phase : t -> int -> phase
val set_phase : t -> int -> phase -> t option
(** [set_phase c i p] returns the cube with variable [i]'s phase replaced,
    or [None] if [p] would contradict (cannot happen with this API — always
    [Some] — kept total for uniformity with {!inter}). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Cube algebra} *)

val inter : t -> t -> t option
(** Product of two cubes; [None] when they do not intersect. *)

val subsumes : t -> t -> bool
(** [subsumes big small] iff [big] covers every minterm of [small]. *)

val distance : t -> t -> int
(** Number of variables in which the two cubes have opposite literals
    (espresso "distance"; 0 ⟺ they intersect). *)

val consensus : t -> t -> t option
(** Consensus of two cubes at distance exactly 1; [None] otherwise. *)

val supercube : t -> t -> t
(** Smallest cube containing both. *)

val cofactor : t -> by:t -> t option
(** Espresso cube cofactor: the part of [c] inside the subspace [by];
    [None] when [c ∩ by = ∅].  For a literal cube [by] this is the Shannon
    cofactor with the tested variable raised to don't-care. *)

val masks : t -> int * int
(** [masks c] = [(care, value)], the cube's int-minterm form: bit [i] of
    [care] is set when variable [i] is a literal, and bit [i] of [value]
    is then the literal's phase.  A minterm [m] (bit [i] of [m] = value
    of variable [i]) lies in [c] iff [m land care = value].  O(n); valid
    for [nvars c ≤ 62].  This module is the only one that knows the
    encoding: {!iter_minterms} is built on it, and the covering bridge
    precomputes one mask pair per prime so that each cube–minterm test is
    one AND and one compare. *)

val covers_minterm : t -> int -> bool
(** [covers_minterm c m] with [m] the minterm's value bitmask (bit [i] of
    [m] = value of variable [i]); valid for [nvars c ≤ 62].  One bit read
    per variable up to the first violated literal, building no masks: the
    test for a single minterm.  To test many minterms against one cube,
    compare them with its {!masks} instead. *)

val literal_count : t -> int
(** Number of literals (non-dash variables). *)

val free_count : t -> int
(** Number of dash variables; [2^free_count] minterms are covered. *)

val raise_var : t -> int -> t
(** Set variable [i] to don't-care (cube expansion step). *)

val literals : t -> (int * bool) list
(** The literals, by increasing variable. *)

val iter_minterms : t -> (int -> unit) -> unit
(** Enumerate covered minterms as value bitmasks, in ascending order
    ([nvars ≤ 62]).  O(n + 2{^free_count}): one call per minterm, no
    allocation per minterm. *)

(** {1 Decision-diagram bridges} *)

val to_bdd : t -> Bdd.t
(** Characteristic function of the cube (BDD variable [i] = input [i]). *)

val zdd_literal_vars : int -> int * int
(** [zdd_literal_vars i] = ZDD variable indices [(pos, neg)] used to encode
    the literals of input [i] in prime-implicant ZDDs: [pos = 2i],
    [neg = 2i + 1]. *)

val to_literal_set : t -> int list
(** The cube as a set of ZDD literal variables (see {!zdd_literal_vars}). *)

val of_literal_set : int -> int list -> t
(** Inverse of {!to_literal_set} for [n] variables. *)
