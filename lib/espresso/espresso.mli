(** An espresso-style heuristic two-level minimiser — the baseline the
    paper compares against (§5, "Espresso" and "Espr. Strong" columns).

    This is a from-scratch reimplementation of the classical
    EXPAND / IRREDUNDANT / REDUCE loop of Brayton et al. on the {!Logic}
    cube algebra, for single-output incompletely specified functions:

    - {b expand}: each cube is enlarged against the OFF-set until prime,
      preferring raises that cover other cubes; covered cubes are dropped;
    - {b irredundant}: cubes that the rest of the cover (plus DC) already
      explains are removed, relatively-essential cubes first;
    - {b reduce}: each cube is shrunk to the supercube of the part of it
      that only it covers, unlocking different expansions;
    - {b last gasp} (strong mode): all cubes are maximally reduced
      independently and re-expanded, occasionally discovering primes the
      main loop cannot reach.

    The solver never branches and keeps no bounds — exactly the
    fast-but-boundless point in design space the paper contrasts with
    ZDD_SCG.  For pure covering matrices (no logic structure) the
    corresponding baseline is {!Covering.Greedy}. *)

type mode =
  | Normal  (** the standard espresso loop *)
  | Strong  (** adds LAST_GASP and an extra convergence loop *)

type result = {
  cover : Logic.Cover.t;  (** the minimised cover *)
  cost : int;  (** number of products *)
  literals : int;
  loops : int;  (** reduce/expand/irredundant passes executed *)
  seconds : float;
  interrupted : bool;  (** a budget trip cut the convergence loop short *)
}

val minimise :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  ?mode:mode ->
  on:Logic.Cover.t ->
  dc:Logic.Cover.t ->
  unit ->
  result
(** Minimise an incompletely specified function.  The result covers the
    ON-set, stays within ON ∪ DC, and is irredundant.  [budget]
    checkpoints every convergence pass (site {!Budget.Espresso_loop});
    on a trip the current cover is returned — still a valid, irredundant
    cover of the function, merely less minimised — with
    [interrupted = true] (LAST_GASP is also skipped).  [telemetry]
    (default: no-op) records one ["espresso-pass"] span per convergence
    pass and the [espresso.loops] counter; [seconds] is measured on
    {!Budget.Clock}, the same wall clock the governor's deadline uses.
    @raise Invalid_argument if arities differ. *)

type pla_result = {
  covers : Logic.Cover.t array;  (** one minimised cover per output *)
  distinct_products : int;
      (** size of the union of all covers' cubes — the PLA row count a
          product-sharing realisation would need (espresso minimises each
          output independently, so identical cubes across outputs merge
          only by luck; compare with {!Scg.solve_pla_multi}) *)
  total_seconds : float;
  interrupted : bool;  (** some output's minimisation was cut short *)
}

val minimise_all :
  ?budget:Budget.t -> ?telemetry:Telemetry.t -> ?mode:mode -> Logic.Pla.t -> pla_result
(** Minimise every output independently; [budget] is shared across the
    outputs, so a trip during one output also cuts the later ones short
    (each still yields a valid cover).  [telemetry] wraps each output's
    minimisation in an ["espresso-output"] span. *)

(** {1 Individual phases, exposed for tests and ablations} *)

val expand : off:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Expand every cube against [off]; result is a cover of the same
    function by prime implicants only. *)

val irredundant : dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Remove redundant cubes (function preserved modulo DC). *)

val reduce : dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Shrink every cube to its essential part (function preserved). *)

val last_gasp : off:Logic.Cover.t -> dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** The strong-mode escape step. *)
