(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch, hash-consed ROBDD engine in the style of Bryant (1986).
    Variables are non-negative integers ordered by their index: the variable
    with the smallest index sits at the top of the diagram.  Nodes are
    maximally shared through a global unique table, so structural equality is
    physical equality and all binary operations are memoised.

    The engine is the substrate for prime-implicant generation
    ({!Logic.Primes}) and for tautology / containment checks in the
    two-level logic layer.  It deliberately omits complement edges and
    dynamic reordering: the problems handled by this reproduction are small
    enough (tens of variables) that the simpler canonical form is preferable
    to the extra invariants those features impose. *)

type t
(** A BDD rooted at a shared node.  Values are canonical: two BDDs represent
    the same Boolean function iff they are physically equal. *)

(** {1 Constants and variables} *)

val zero : t
(** The constant false function. *)

val one : t
(** The constant true function. *)

val var : int -> t
(** [var i] is the projection function of variable [i].
    @raise Invalid_argument if [i < 0]. *)

val nvar : int -> t
(** [nvar i] is the negative literal [¬xᵢ]. *)

(** {1 Structure} *)

val is_zero : t -> bool
val is_one : t -> bool

val equal : t -> t -> bool
(** Constant-time (physical) equality — sound and complete by canonicity. *)

val compare : t -> t -> int
(** A total order consistent with [equal] (compares unique tags). *)

val hash : t -> int

val top_var : t -> int
(** Topmost (smallest-index) variable. @raise Invalid_argument on constants. *)

val cofactors : t -> int * t * t
(** [cofactors f] = [(v, f₁, f₀)]: the top variable and the two Shannon
    cofactors with respect to it, in O(1).
    @raise Invalid_argument on constants. *)

val size : t -> int
(** Number of distinct internal nodes reachable from the root. *)

(** {1 Boolean connectives} *)

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bimp : t -> t -> t
(** [bimp f g] is [¬f ∨ g]. *)

val intersects : t -> t -> bool
(** [intersects f g] iff [f ∧ g] is satisfiable, decided without
    creating a node: a depth-first search over pairs of nodes that stops
    at the first common path to [one].  Searches longer than 64 steps
    remember the pairs they find disjoint in the conjunction cache (as
    [zero], their true conjunction), which bounds a search at
    O(|f|·|g|) pairs, like {!band}; short ones touch no table at all.
    That is the whole difference from [is_zero (band f g)], which on a
    disjoint pair creates no node either but looks up and inserts every
    pair it visits in the conjunction cache.  The implicit covering
    bridge calls it before every (region, prime) conjunction, most of
    which are empty and nearly all of which end within 16 steps; there
    it halves the bridge's time against calling [band] first
    (doc/ALGORITHMS.md §14). *)

val bite : t -> t -> t -> t
(** [bite f g h] is if-then-else: [(f ∧ g) ∨ (¬f ∧ h)]. *)

val bdiff : t -> t -> t
(** [bdiff f g] is [f ∧ ¬g]. *)

(** {1 Cofactors and quantification} *)

val cofactor : t -> var:int -> bool -> t
(** [cofactor f ~var b] substitutes the constant [b] for variable [var]. *)

val exists : int list -> t -> t
(** Existential quantification over the listed variables. *)

val forall : int list -> t -> t
(** Universal quantification over the listed variables. *)

val support : t -> int list
(** Variables the function actually depends on, in increasing order. *)

(** {1 Semantics} *)

val eval : t -> (int -> bool) -> bool
(** [eval f env] evaluates [f] under the assignment [env]. *)

val implies : t -> t -> bool
(** [implies f g] iff [f ∧ ¬g] is unsatisfiable. *)

val sat_count : nvars:int -> t -> float
(** Number of satisfying assignments over variables [0 .. nvars-1].
    Returned as a float to accommodate counts beyond [max_int]. *)

val any_sat : t -> (int * bool) list
(** One satisfying partial assignment (variables not listed are free).
    @raise Not_found if the function is [zero]. *)

val iter_sat : nvars:int -> t -> (bool array -> unit) -> unit
(** Enumerate every minterm over [0 .. nvars-1]; intended for small [nvars]
    (testing and minterm extraction on benchmark-sized functions). *)

(** {1 Bulk constructors} *)

val cube_of_literals : (int * bool) list -> t
(** Conjunction of literals: [(i, true)] contributes [xᵢ], [(i, false)]
    contributes [¬xᵢ].  The empty list yields [one]. *)

val conj : t list -> t
val disj : t list -> t

(** {1 Engine management} *)

val configure : ?initial_size:int -> unit -> unit
(** [initial_size] seeds the unique table of managers created after the
    call (per-domain; default 65_536, clamped to ≥ 16).  Kept as a
    shared atomic so worker domains inherit it, mirroring
    [Zdd.configure]. *)

val clear_caches : unit -> unit
(** Drop all operation caches (the unique table is retained, so canonicity
    is preserved).  Useful between large independent computations. *)

val node_count : unit -> int
(** Number of live nodes in this domain's unique table. *)

val peak_node_count : unit -> int
(** High-water mark of {!node_count} over the manager's lifetime,
    including across {!Gc} collections. *)

(** Mark-and-sweep reclamation of dead nodes, mirroring [Zdd.Gc] in its
    simplest form: callers supply every function they still need as
    [roots]; everything unreachable is removed from the unique table and
    the operation caches are invalidated (a stale cache hit must not
    resurrect a swept node). *)
module Gc : sig
  type stats = { collections : int; reclaimed_total : int }

  val collect : ?roots:t list -> unit -> int
  (** Full sweep; returns the number of nodes reclaimed. *)

  val stats : unit -> stats
end

val pp : Format.formatter -> t -> unit
(** Debug printer showing the DAG as nested if-then-else. *)
