(** Explicit Quine–McCluskey prime generation, kept as the test oracle
    of {!Logic.Primes}.

    The textbook tabulation method: start from the minterms of the care set
    (ON ∪ DC), repeatedly merge pairs of cubes that are identical except for
    one variable in opposite phases, and collect the cubes that were never
    merged.  Exponential in the number of inputs — the independent oracle
    against which the implicit {!Logic.Primes} engine is tested, and the
    reference implementation of the classical solving method the paper
    departs from (§2). *)

open Logic

val primes : on:Cover.t -> dc:Cover.t -> Cube.t list
(** All prime implicants of the incompletely specified function.
    Practical up to roughly 14 inputs.
    @raise Invalid_argument beyond 20 inputs. *)

val brute_force_primes : on:Cover.t -> dc:Cover.t -> Cube.t list
(** Enumerate all 3ⁿ cubes and keep maximal implicants.  Even slower; the
    oracle's oracle (usable to ~8 inputs).
    @raise Invalid_argument beyond 10 inputs. *)
