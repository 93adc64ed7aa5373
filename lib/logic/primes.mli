(** Implicit prime-implicant generation.

    Computes the set of all prime implicants of an incompletely specified
    function [(on, dc)] as a ZDD over literal variables, using the
    Coudert–Madre recursion on the BDD of the care function
    [f = on ∪ dc]:

    {v
      P(0) = {}          P(1) = {∅}  (the universal cube)
      P(f) = P(f₀·f₁)  ∪  x̄·(P(f₀) \ P(f₀·f₁))  ∪  x·(P(f₁) \ P(f₀·f₁))
    v}

    where [f₀, f₁] are the cofactors on the top variable [x].  The encoding
    of literals follows {!Cube.zdd_literal_vars}: ZDD variable [2i] is the
    positive literal of input [i], variable [2i+1] the negative literal.

    This module is the "Encode" step of the paper's ZDD_SCG pipeline:
    primes are never enumerated explicitly until the problem has been
    reduced. *)

type memo
(** The recursion's table from BDD node to prime ZDD.  [P(f)] depends on
    [f]'s node alone, so calls that share a memo never recompute the
    primes of a node any of them met, such as the cofactor products that
    related functions have in common.  A memo holds nodes of the calling
    domain's managers; keep it on that domain. *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val of_bdd : ?memo:memo -> Bdd.t -> Zdd.t
(** Prime implicants of the function represented by the BDD, as a ZDD of
    literal sets.  [Zdd.base] means the function is a tautology (the
    universal cube is its only prime).  [memo] defaults to a fresh one,
    so a call without it shares nothing. *)

val of_covers : on:Cover.t -> dc:Cover.t -> Zdd.t
(** Primes of the care function [on ∪ dc].  (The standard Quine–McCluskey
    setting: primes may dip into the don't-care set.) *)

val count : Zdd.t -> float
(** Number of primes (alias of {!Zdd.count}, for pipeline readability). *)

val to_cubes : nvars:int -> Zdd.t -> Cube.t list
(** Decode to explicit cubes, each built in one pass
    ({!Cube.of_literal_set}) — only do this after reductions have made
    the set small. *)

val essential :
  on:Cover.t -> dc:Cover.t -> primes:Cube.t list -> Cube.t list
(** Essential primes: those covering at least one ON-set minterm no other
    prime covers.  Uses cover containment, not minterm enumeration. *)
