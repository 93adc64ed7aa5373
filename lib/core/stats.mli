(** Run statistics of a ZDD_SCG solve, mirroring the columns the paper
    reports: cyclic-core time (implicit + explicit), total time, sizes. *)

type t = {
  input_rows : int;
  input_cols : int;
  implicit_rows_left : float;  (** rows after the implicit phase *)
  core_rows : int;  (** cyclic-core dimensions after explicit reductions *)
  core_cols : int;
  essential_count : int;  (** columns fixed by the reductions *)
  cyclic_core_seconds : float;  (** the paper's CC(s) *)
  total_seconds : float;  (** the paper's T(s) *)
  subgradient_steps : int;  (** across all runs and fixing phases *)
  warm_steps : int;
      (** the part of [subgradient_steps] taken by warm-started runs:
          the runs below each descent's root, which start from the
          previous subproblem's multipliers (0 without
          [Config.warm_start]) *)
  warm_stalls : int;  (** warm runs that the stall rule ended *)
  iterations : int;  (** constructive runs actually performed *)
  best_iteration : int;  (** run (1-based) on which the incumbent was last
                             improved — the paper's MaxIter column; 0 when
                             reductions alone solved the problem or no run
                             ever beat the greedy seed *)
  fixes : int;  (** columns fixed heuristically (σ-rule + promising) *)
  penalty_fixes : int;  (** columns fixed or removed by penalties *)
  budget_trip : string option;
      (** [Some (Budget.describe trip)] when the resource governor fired
          during the solve — records which checkpoint site stopped the
          run and why; [None] on an ungoverned or untripped run *)
}

val zero : t
val pp : Format.formatter -> t -> unit

val to_json : t -> Telemetry.Json.t
(** One flat object, field names as above; [budget_trip] maps to
    [null]/string.  Used by [ucp_solve --stats-json] and the bench
    runner. *)
