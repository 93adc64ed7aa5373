(** Zero-suppressed Binary Decision Diagrams (Minato, DAC'93).

    A ZDD canonically represents a family of finite sets over non-negative
    integer elements ("variables").  The zero-suppression rule — a node whose
    [hi] child is the empty family is replaced by its [lo] child — makes the
    representation extremely compact for the sparse families that arise in
    covering problems: sets of prime implicants, covering-matrix rows, cube
    sets.

    Like {!Bdd}, the engine hash-conses nodes in a per-domain unique
    table, so equal families are the same node and all operations are
    memoised; nodes, unique table and caches are flat int arrays the
    OCaml GC never promotes or marks.  Variables are ordered by
    increasing index from the root.

    Terminology: [empty] is the family {} (no set at all); [base] is the
    family {∅} containing exactly the empty set. *)

type t
(** A family of sets: the number of its root node in this domain's store
    ([empty] and [base] are shared by every domain).  A value means
    something only on the domain that built it, and only until a
    collection that was not given it as a root ({!Gc}).  Canonical:
    equal numbers ⟺ same family. *)

type elt = int
(** Set elements are non-negative integers. *)

(** {1 Constants and constructors} *)

val empty : t
(** The empty family {}. *)

val base : t
(** The family {∅}. *)

val of_set : elt list -> t
(** The family containing exactly the given set (duplicates ignored). *)

val of_sets : elt list list -> t
(** The family of the given sets: the union of [of_set] over the list
    (members may repeat, be unsorted or hold repeated elements).  Built
    by {!of_arrays}. *)

val of_arrays : elt array array -> t
(** [of_sets] over arrays, built without any union: the members are
    sorted (each set ascending, then the sets lexicographically) and the
    diagram is laid out bottom-up in one pass, so each node of the result
    is created exactly once, children before parents, and nothing else is
    allocated in the unique table.  Cost: the sort, O(n log n) set
    comparisons for n sets, plus one unique-table lookup per (set prefix,
    next element) pair, i.e. at most the total element count.  Recursion
    depth is bounded by the longest set.  Sets already ascending without
    repeats (matrix rows) are used as given; the input is not modified.
    @raise Invalid_argument on a negative element. *)

(** {1 Structure} *)

val is_empty : t -> bool
val is_base : t -> bool

val equal : t -> t -> bool
(** Int equality of node numbers — sound and complete by canonicity. *)

val size : t -> int
(** Number of internal DAG nodes. *)

val count : t -> float
(** Number of sets in the family (exact for < 2⁵³). *)

(** {1 Set-family algebra} *)

val union : t -> t -> t
val diff : t -> t -> t

val subset0 : t -> elt -> t
(** [subset0 f v]: the sets of [f] not containing [v]. ("offset".) *)

val change : t -> elt -> t
(** [change f v] toggles membership of [v] in every set of [f]. *)

(** {1 Dominance} *)

val minimal : t -> t
(** Minimal sets of the family: those containing no other member.
    Implicit row-dominance in one operation. *)

(** {1 Queries for covering} *)

val singletons : t -> elt list
(** Elements [v] with \{v\} in the family, increasing order.  Singleton rows
    of a covering matrix identify essential columns. *)

val support : t -> elt list
(** All elements appearing in at least one set, increasing order. *)

(** {1 Enumeration} *)

val fold_sets : t -> init:'a -> f:('a -> elt list -> 'a) -> 'a
(** Fold over every member set (elements in increasing order) in
    depth-first order: at each element, the sets holding it come before
    the sets without it.  Intended for decode-to-explicit when the
    family is small. *)

val to_sets : t -> elt list list
(** All member sets, in the order of {!fold_sets}. *)

(** {1 Engine management}

    Each OCaml 5 domain owns a private manager (node store, unique
    table, operation caches, collector), created by its first ZDD
    operation.  The managers have a real lifecycle: the caller names the
    live families at each collection, and dead nodes are reclaimed by
    generational mark-and-sweep ({!Gc}).  A reclaimed node's number is
    handed to a later new node, so a collection that reclaims anything
    also clears every operation cache: no stale entry can name a
    reused number (a collection that reclaims nothing keeps them: no
    entry can be stale). *)

val default_initial_size : int
(** 4_096 — the out-of-the-box store size: room for that many nodes
    and a unique table of at least twice as many slots.  The node
    arrays double when full and the unique table when more than half
    full; the operation caches start at 64 slots whatever the size and
    double when more than half full, and a collection that clears them
    shrinks them back.  So a small start costs a few resizes on large
    implicit phases and keeps a fresh manager cheap to create. *)

val default_gc_threshold : int
(** 262_144 — the out-of-the-box allocation budget between automatic
    collections. *)

val configure :
  ?initial_size:int -> ?gc_threshold:int -> ?chain_reduction:bool -> unit -> unit
(** Engine-wide tunables (shared atomics; worker domains spawned later
    inherit them, and running managers re-read [gc_threshold] at each
    safe point).  [initial_size] sizes new domains' stores
    (default 4_096, clamped to ≥ 16; see {!default_initial_size}).  [gc_threshold] is the number of
    fresh allocations between automatic {!Gc.maybe_collect} collections
    (default 262_144); [0] disables automatic collection entirely.
    [chain_reduction] toggles the chain-aware fast path of {!minimal}:
    removing the supersets of a family that holds one set, by walking
    that set as a list (default [true]). *)

val node_count : unit -> int
(** Current unique-table occupancy on this domain.  Grows with
    hash-consing and shrinks when {!Gc} reclaims dead nodes. *)

val peak_node_count : unit -> int
(** High-water mark of {!node_count} over the manager's lifetime;
    always [>= node_count ()], including across collections. *)

val chain_hit_count : unit -> int
(** How many operations resolved through a chain fast path on this
    domain (see {!configure}). *)

(** Generational mark-and-sweep over this domain's unique table.
    Collections are only triggered between operations (never inside a
    recursion), so callers decide the safe points and pass the families
    they still need as [roots]; nothing else survives a collection.
    Minor collections sweep only the nursery — the buffer of nodes
    created since the last collection; sound because children are
    always older than their parents — and escalate to a full sweep when
    the nursery is mostly live.  A family passed as a root is read with
    bounds checks: a number outside this domain's store raises
    [Invalid_argument]. *)
module Gc : sig
  type stats = {
    collections : int;  (** total collections (minor + major) *)
    major_collections : int;
    reclaimed_total : int;  (** nodes reclaimed over the lifetime *)
    live_after_last : int;  (** table occupancy after the last sweep *)
    threshold : int;  (** current adaptive allocation threshold *)
  }

  val collect : ?roots:t list -> unit -> int
  (** Force a full (major) collection; returns nodes reclaimed. *)

  val maybe_collect : ?roots:t list -> unit -> bool
  (** Collect iff allocations since the last collection exceed the
      adaptive threshold (seeded from {!configure}'s [gc_threshold];
      low-yield collections back it off up to 32×, high-yield ones pull
      it back).  Returns whether a collection ran. *)

  val stats : unit -> stats
end

