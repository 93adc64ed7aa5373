(** FSM logic synthesis: from a (minimised) machine to a two-level
    implementation.

    The back half of the classical KISS flow: encode the states in binary,
    emit the combinational next-state/output logic as a multi-output PLA,
    and hand it to the covering minimiser.  Unused state codes become
    don't-cares, which is where two-level minimisation wins after state
    minimisation has shrunk the code space. *)

val state_bits : Machine.t -> int
(** ⌈log₂ |states|⌉ (at least 1). *)

val to_pla : Machine.t -> Logic.Pla.t
(** The combinational logic: inputs = machine inputs ++ state bits;
    outputs = next-state bits ++ machine outputs.  Transition rows carry
    the specified behaviour; one row per unused state code marks the whole
    output plane don't-care.
    @raise Invalid_argument if the machine has no states or an unspecified
    next state coexists with specified outputs in a way the fd encoding
    cannot express (never produced by {!Minimise}). *)

val simulate_pla : Logic.Pla.t -> n_inputs:int -> state_bits:int -> state:int -> input:int -> int * string
(** Evaluate the encoded logic: returns (next state code, output bits) for
    a given state code and input vector — the test oracle for {!to_pla}. *)

val implement :
  ?config:Scg.Config.t -> Machine.t -> Logic.Pla.t * Scg.result
(** State-encode, emit the PLA, minimise it with the shared-product
    covering pipeline, and return the minimised PLA plus the solver
    result.  A machine whose outputs and next-state bits are never 1 has
    no ON-minterm to cover: it gets the PLA with no rows and the solve
    of the empty matrix (cost 0, optimal). *)
