(** Multi-output prime generation as first written, kept as the test
    oracle of {!Logic.Multi.primes}.

    Each of the 2ᵐ − 1 output subsets conjoins its care functions from
    [Bdd.one], runs {!Logic.Primes.of_bdd} with a fresh memo, and
    decodes every prime; a cube not seen before (by its string) is
    tagged with every output [k] for which [cube ∧ ¬care_k] is [zero].
    The shared-memo, lattice-product generator must return the same
    list, sorted by {!Logic.Multi.compare_prime}. *)

val primes : Logic.Pla.t -> Logic.Multi.prime list
(** All multi-output primes of the PLA, sorted.  No guards: meant for
    the test sizes (at most 11 inputs and 5 outputs here). *)
