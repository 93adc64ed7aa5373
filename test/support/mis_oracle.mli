(** The greedy maximal-independent-set bound as first written, kept as
    the test oracle of {!Covering.Mis_bound.compute}.

    One [Hashtbl] of neighbours per row; each pick scans the live rows
    with polymorphic [(degree, −cheapest cost, index)] keys, refolding
    the cheapest cost on every compare; each dead row lowers its live
    neighbours' degrees.  The flat-array greedy must pick the same rows
    in the same order, so both the [rows] list and the [bound] compare
    directly. *)

val compute : Covering.Matrix.t -> Covering.Mis_bound.t
(** Repeatedly take the row intersecting the fewest live rows (ties:
    larger cheapest-column cost, then lower index), and drop it and its
    neighbours. *)
