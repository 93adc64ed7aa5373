(** The pass engine for explicit reductions, kept as the test oracle of
    {!Covering.Reduce2}.

    One reduction kind per pass (essential columns, then row dominance,
    then column dominance, then Gimpel's reduction), each pass
    rebuilding the immutable matrix, iterated to the fixpoint.  Its
    results use the shared {!Covering.Reduce} vocabulary, so cores,
    traces and fixed costs compare directly with the worklist
    engine's. *)

open Covering

val essential_columns : Matrix.t -> int list
(** Column indices appearing in singleton rows. *)

val dominated_rows : Matrix.t -> bool array
(** [true] for rows that strictly contain another row (or duplicate an
    earlier row) and can be deleted. *)

val dominated_columns : Matrix.t -> bool array
(** [true] for columns [j] dominated by some [k]: [rows(k) ⊇ rows(j)] and
    [cost(k) ≤ cost(j)] (ties broken towards keeping the smaller index). *)

val step : ?gimpel:bool -> next_virtual_id:int ref -> Matrix.t -> Reduce.result option
(** One pass of essential / row-dominance / column-dominance (/ Gimpel);
    [None] when nothing applies. *)

val cyclic_core : ?gimpel:bool -> Matrix.t -> Reduce.result
(** Iterate {!step} to the fixpoint.  [gimpel] defaults to [true]. *)
