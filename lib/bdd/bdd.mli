(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch, hash-consed ROBDD engine in the style of Bryant (1986).
    Variables are non-negative integers ordered by their index: the variable
    with the smallest index sits at the top of the diagram.  Nodes are
    maximally shared through a per-domain unique table, so two BDDs of the
    same function are the same node and all operations are memoised.  The
    nodes, the unique table and the caches are flat int arrays (one store
    per domain), so no node is a heap block for the OCaml GC to promote or
    mark.

    The engine is the substrate for prime-implicant generation
    ({!Logic.Primes}) and for tautology / containment checks in the
    two-level logic layer.  It deliberately omits complement edges and
    dynamic reordering: the problems handled by this reproduction are small
    enough (tens of variables) that the simpler canonical form is preferable
    to the extra invariants those features impose. *)

type t
(** A BDD: the number of its root node in this domain's store ([zero] and
    [one] are shared by every domain).  A value means something only on
    the domain that built it.  Values are canonical: two BDDs represent
    the same Boolean function iff their numbers are equal. *)

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
(** Int equality of node numbers — sound and complete by canonicity. *)

val hash : t -> int
(** The node number. *)

val cofactors : t -> int * t * t
(** [cofactors f] = [(v, f₁, f₀)]: the top variable and the two Shannon
    cofactors with respect to it, in O(1).
    @raise Invalid_argument on constants, or on a number outside this
    domain's store. *)

val size : t -> int
(** Number of distinct internal nodes reachable from the root. *)

(** {1 Boolean connectives} *)

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t

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

val bdiff : t -> t -> t
(** [bdiff f g] is [f ∧ ¬g]. *)

(** {1 Semantics} *)

val eval : t -> (int -> bool) -> bool
(** [eval f env] evaluates [f] under the assignment [env]. *)

val implies : t -> t -> bool
(** [implies f g] iff [f ∧ ¬g] is unsatisfiable, decided like
    {!intersects} without creating a node: a depth-first search over
    pairs of nodes that stops at the first path into [f] and out of
    [g].  Searches longer than 64 steps remember the pairs they prove in
    the conjunction cache (as [f], their true conjunction), which bounds
    a search at O(|f|·|g|) pairs, like [is_zero (bdiff f g)], which
    builds [¬g] and every node of [f ∧ ¬g] (doc/ALGORITHMS.md §14). *)

val sat_count : nvars:int -> t -> float
(** Number of satisfying assignments over variables [0 .. nvars-1].
    Returned as a float to accommodate counts beyond [max_int]. *)

(** {1 Bulk constructors} *)

val cube_of_literals : (int * bool) list -> t
(** Conjunction of literals: [(i, true)] contributes [xᵢ], [(i, false)]
    contributes [¬xᵢ].  The empty list yields [one]. *)

val disj : t list -> t

(** {1 Engine management} *)

val configure : ?initial_size:int -> unit -> unit
(** [initial_size] sizes the stores of managers created after the call
    (per-domain; default 4_096, clamped to ≥ 16): room for that many
    nodes, and a unique table of at least twice as many slots.  The node
    arrays double when full and the unique table when more than half
    full; the operation caches start at 64 slots whatever the size and
    double when more than half full.  Kept as a shared atomic so worker
    domains inherit it, mirroring [Zdd.configure].  A domain's manager
    is created by its first BDD operation. *)

val node_count : unit -> int
(** Number of nodes in this domain's unique table.  Nothing is ever
    reclaimed, so it only grows. *)
