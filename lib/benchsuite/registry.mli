(** The named benchmark registry.

    One synthetic stand-in per instance of the paper's evaluation (§5),
    keeping the three-category structure of the Berkeley PLA test set:

    - {e easy cyclic} (49 instances): reductions do most of the work; the
      heuristic should prove optimality on essentially all of them;
    - {e difficult cyclic} (7 instances — Table 1/3): genuine cyclic cores
      the exact solver can still finish;
    - {e dense cyclic} (5 instances, ours): row-regular cores whose rows
      cover 20-45% of the columns — the dense-core regime the bit-slice
      kernels ({!Covering.Dense}) target;
    - {e challenging} (16 instances — Table 2/4): large cyclic cores; on
      the biggest, the exact solver exhausts its budget and only reports an
      incumbent, reproducing the "H"-marked rows of the paper;
    - {e scale} (5 instances, ours): CI-sized members of the adversarial
      generator families ({!Randucp.planted}, {!Randucp.powerlaw},
      {!Randucp.multi_component}, wide {!Randucp.beasley}); the planted
      ones have certified optima, twice their block counts.

    Instances are deterministic functions of their names; the absolute
    sizes are scaled down from the 1999 originals so the full harness runs
    in minutes (see DESIGN.md §4 on why this preserves the comparisons). *)

type category =
  | Easy
  | Difficult
  | Dense_cyclic
  | Challenging
  | Scale

type problem =
  | Raw of Covering.Matrix.t
      (** a pure covering matrix (baseline: greedy covering) *)
  | Two_level of Plagen.spec
      (** an incompletely specified function
          (baseline: the espresso loop) *)
  | Multi_level of Logic.Pla.t
      (** a multi-output PLA, minimised with shared products
          (baseline: espresso per output) *)

type instance = {
  name : string;
  category : category;
  problem : problem Lazy.t;
}

val all : unit -> instance list
val easy : unit -> instance list
val difficult : unit -> instance list
(** In Table 1/3 order: bench1 ex5 exam max1024 prom2 t1 test4. *)

val dense : unit -> instance list
(** dense-a … dense-e, ordered by name. *)

val challenging : unit -> instance list
(** In Table 2/4 order: ex1010 ex4 ibm jbp misg mish misj pdc shift
    soar.pla test2 test3 ti ts10 x2dn xparc. *)

val scale : unit -> instance list
(** The 5 adversarial large instances (CI-sized members of the
    {!Randucp} scale families): scale-planted-s and scale-planted-x
    have certified optima (800 and 300); scale-powerlaw,
    scale-beasley-wide and scale-multi-8 stress greedy scores,
    dominance and the partition path. *)

val find : string -> instance
(** @raise Not_found for unknown names. *)

val matrix : instance -> Covering.Matrix.t
(** The covering matrix (built through primes/minterms for two-level
    instances). *)

val string_of_category : category -> string
