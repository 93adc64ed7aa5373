(** The vocabulary of the explicit covering-matrix reductions (the
    paper's [Explicit_Reductions]).

    The classical toolbox surveyed by Coudert: essential columns, row
    dominance, column dominance and Gimpel's reduction, iterated to a
    fixpoint.  The stable matrix that remains is the {e cyclic core}; when
    it is empty the essential columns found along the way form an optimal
    solution of the input matrix.  {!Reduce2.cyclic_core} computes it;
    this module holds the result and trace types it returns and the
    mapping of core solutions back to the input.

    All reductions preserve at least one optimal solution.  Because
    Gimpel's reduction introduces a {e virtual} column standing for "pay
    the cost difference and take the expensive twin", solutions of the core
    must be mapped back through the {!trace}; {!lift} does this. *)

type trace_item =
  | Essential of { id : int; cost : int }
      (** Column [id] was forced into the solution. *)
  | Gimpel of { virtual_id : int; cheap_id : int; dear_id : int; base_cost : int }
      (** A row \{cheap, dear\} with [rows(cheap)] a singleton was folded:
          the core gained column [virtual_id] of cost
          [cost(dear) - cost(cheap)]; [base_cost] = [cost(cheap)] is paid
          unconditionally. *)

type trace = trace_item list
(** Reduction events, oldest first. *)

type result = {
  core : Matrix.t;  (** the reduced matrix (may be empty) *)
  trace : trace;
  fixed_cost : int;  (** cost already committed (essentials + Gimpel bases) *)
}

val lift : trace -> int list -> int list
(** [lift trace core_solution_ids] maps a solution of the core (as original
    column {e identifiers}) to a solution of the input matrix, resolving
    essentials and Gimpel virtual columns. *)

val lifted_cost : original:Matrix.t -> trace -> int list -> int
(** Cost of [lift trace sol] in the original matrix. *)
