(** Tuning parameters of the ZDD_SCG solver.

    Defaults follow the paper where it gives values (§3.7, §4) and sensible
    choices where it does not (documented in DESIGN.md §5). *)

type t = {
  max_rows_implicit : int;
      (** [MaxR]: stop implicit reductions once at most this many rows
          remain (paper: 5000). *)
  max_cols_implicit : int;
      (** [MaxC]: the companion column guard (paper: 10000). *)
  num_iter : int;
      (** [NumIter]: number of constructive runs; the first is
          deterministic, later ones randomise the column choice
          (default 5). *)
  best_col_start : int;
      (** [BestCol] for the first run (paper: strict best = 1). *)
  best_col_growth : int;
      (** [BestCol] increment per run ("grows from run to run"). *)
  dual_pen_max_cols : int;
      (** [DualPen]: dual penalties only below this column count
          (paper: 100). *)
  alpha : float;  (** σ-rule weight (paper: 2). *)
  c_hat : float;  (** promising-column reduced-cost threshold (0.001). *)
  mu_hat : float;  (** promising-column dual threshold (0.999). *)
  use_gimpel : bool;
      (** apply Gimpel's reduction when computing the initial cyclic core
          (default true). *)
  use_penalties : bool;
      (** apply the Lagrangian penalty conditions (3)–(4) during the
          descent (default true); dual penalties (5)–(6) are governed by
          [dual_pen_max_cols] (0 disables them).  Ablation knob. *)
  warm_start : bool;
      (** reuse the previous subproblem's multipliers as λ₀/μ₀ (§3.2,
          default true).  Ablation knob. *)
  seed : int;  (** RNG seed for the randomised runs (default 0x5C6). *)
  jobs : int;
      (** worker count for component parallelism: cyclic-core components
          are solved on a {!Par.Pool} of this many domains (default 1 =
          the exact legacy sequential path, no domains spawned).  Covers,
          costs and status are bit-identical for every [jobs] value; see
          DESIGN.md §10. *)
  par_min_rows : int;
      (** work-size threshold for component parallelism: components
          below this many rows are solved inline on the caller instead
          of crossing a domain boundary, and when fewer than two
          components reach it, no pool is spun up at all (default
          {!Par.default_min_rows} = 256).  Results are bit-identical for
          every value. *)
  dense_threshold : int;
      (** adaptive bit-slice dispatch: matrices with
          [rows·cols <= dense_threshold] (and density ≥ 1/word) get a
          {!Covering.Dense} packed-bitset mirror for the reduction,
          greedy and subgradient hot loops (default
          {!Covering.Dense.default_threshold} = 2{^20} cells; [0]
          forces the pure sparse path everywhere).  Results are
          bit-identical for every value — the knob trades memory for
          speed only. *)
  zdd_initial_size : int;
      (** initial unique-table size for per-domain ZDD/BDD managers
          (default {!Zdd.default_initial_size} = 65_536).  Applied via
          [Zdd.configure]/[Bdd.configure] at the top of every solve, so
          worker domains spawned for parallel components inherit it. *)
  zdd_gc_threshold : int;
      (** allocation budget between automatic ZDD garbage collections
          during implicit reduction (default
          {!Zdd.default_gc_threshold} = 262_144; [0] disables automatic
          collection).  The collector adapts around this base — see
          [Zdd.Gc].  Results are bit-identical for every value; the
          knob trades collection time for peak memory only. *)
  zdd_chain_reduction : bool;
      (** chain-aware fast paths in the ZDD product/no_sub_set/no_sup_set
          recursions (default true).  Results are bit-identical either
          way; ablation and benchmarking knob. *)
  subgradient : Lagrangian.Subgradient.config;
}

val default : t

val pp : Format.formatter -> t -> unit
