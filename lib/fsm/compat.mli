(** Compatibility analysis for ISFSM state minimisation.

    Two states are {e compatible} when no input sequence elicits
    conflicting specified outputs; equivalently (Paull–Unger), the pair
    neither conflicts directly on outputs nor implies an incompatible
    pair — computed here as the classical fixpoint on the pair table.

    A set of states is a {e compatible} iff pairwise compatible; choosing
    a compatible as a merged state {e implies}, for each input, the class
    of successors, which must itself lie inside some chosen compatible —
    the closure constraint that makes minimisation a {b binate} covering
    problem.

    {e Prime} compatibles (Grasselli–Luccio) suffice for an optimal closed
    cover: a compatible is pruned when a strict superset exists whose
    implied classes are no harder to close. *)

type t = {
  machine : Machine.t;
  compatible : bool array array;  (** pair table, symmetric *)
}

val analyse : Machine.t -> t
(** The Paull–Unger fixpoint.  Enumerates input vectors; intended for
    machines with ≤ 16 input bits. *)

val pairs_incompatible : t -> int -> int -> bool

val all_compatibles : ?limit:int -> t -> int list list
(** Every non-empty compatible (clique of the compatibility graph), each
    sorted ascending; the list is sorted by decreasing size then
    lexicographically.  @raise Invalid_argument when more than [limit]
    (default 100_000) compatibles exist. *)

val implied_classes : t -> int list -> int list list
(** The closure requirements Γ(C) of a compatible: for each input vector,
    the specified successor class (deduplicated, restricted to classes of
    ≥ 2 states not already inside [C]). *)

val prime_compatibles : ?limit:int -> t -> int list list
(** The Grasselli–Luccio candidates: compatibles not dominated by a strict
    superset with no-harder closure requirements.  Maximal compatibles are
    always prime. *)
