(* The resource governor and its anytime guarantees.

   Unit tests pin the tick accounting (budgets, fault injection, the
   deadline clock); the integration sweeps inject deterministic faults at
   every checkpoint site of the solver stack and assert the contract: the
   solver never raises, always returns a feasible cover, always reports a
   valid lower bound, and records an accurate status.  A differential
   test checks that an active-but-unlimited governor changes nothing. *)

module Matrix = Covering.Matrix
module Budget = Scg.Budget

(* ------------------------------------------------------------------ *)
(* tick accounting                                                    *)
(* ------------------------------------------------------------------ *)

let test_none_inert () =
  let b = Budget.none in
  for _ = 1 to 1000 do
    List.iter
      (fun site -> Alcotest.(check bool) "never stops" false (Budget.tick b site))
      Budget.all_sites
  done;
  Alcotest.(check int) "no ticks recorded" 0 (Budget.ticks b);
  Alcotest.(check bool) "inactive" false (Budget.is_active b);
  Alcotest.(check bool) "no trip" true (Budget.tripped b = None)

let test_unlimited_active () =
  let b = Budget.create () in
  Alcotest.(check bool) "active" true (Budget.is_active b);
  for _ = 1 to 1000 do
    List.iter
      (fun site -> Alcotest.(check bool) "never trips" false (Budget.tick b site))
      Budget.all_sites
  done;
  Alcotest.(check int) "counts ticks"
    (1000 * List.length Budget.all_sites)
    (Budget.ticks b)

let test_node_budget () =
  let b = Budget.create ~nodes:3 () in
  (* step-like sites never count against the node budget *)
  for _ = 1 to 10 do
    ignore (Budget.tick b Budget.Subgradient)
  done;
  Alcotest.(check bool) "1" false (Budget.tick b Budget.Exact_bb);
  Alcotest.(check bool) "2" false (Budget.tick b Budget.Implicit_reduce);
  Alcotest.(check bool) "3" false (Budget.tick b Budget.Explicit_reduce);
  Alcotest.(check bool) "4 trips" true (Budget.tick b Budget.Exact_bb);
  (match Budget.tripped b with
  | Some { Budget.site = Budget.Exact_bb; reason = Budget.Node_budget 3; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none"));
  (* sticky: every later tick at any site stops immediately *)
  List.iter
    (fun site -> Alcotest.(check bool) "sticky" true (Budget.tick b site))
    Budget.all_sites

let test_step_budget () =
  let b = Budget.create ~steps:2 () in
  for _ = 1 to 10 do
    ignore (Budget.tick b Budget.Exact_bb)
  done;
  Alcotest.(check bool) "1" false (Budget.tick b Budget.Subgradient);
  Alcotest.(check bool) "2" false (Budget.tick b Budget.Dual_ascent);
  Alcotest.(check bool) "3 trips" true (Budget.tick b Budget.Subgradient);
  match Budget.tripped b with
  | Some { Budget.reason = Budget.Step_budget 2; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_fault_site_filter () =
  let b = Budget.create ~fault_after:2 ~fault_site:Budget.Dual_ascent () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "other sites" false (Budget.tick b Budget.Subgradient)
  done;
  Alcotest.(check bool) "first" false (Budget.tick b Budget.Dual_ascent);
  Alcotest.(check bool) "second trips" true (Budget.tick b Budget.Dual_ascent);
  match Budget.tripped b with
  | Some { Budget.site = Budget.Dual_ascent; reason = Budget.Fault_injected 2; tick } ->
    Alcotest.(check int) "global tick recorded" 52 tick
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_deadline_fake_clock () =
  let clock = ref 0.0 in
  let b = Budget.create ~timeout:10.0 ~now:(fun () -> !clock) ~check_every:4 () in
  for _ = 1 to 16 do
    Alcotest.(check bool) "before deadline" false (Budget.tick b Budget.Exact_bb)
  done;
  clock := 11.0;
  (* ticks 17..19 are off-cadence, the clock is only read on the 20th *)
  Alcotest.(check bool) "17" false (Budget.tick b Budget.Exact_bb);
  Alcotest.(check bool) "18" false (Budget.tick b Budget.Exact_bb);
  Alcotest.(check bool) "19" false (Budget.tick b Budget.Exact_bb);
  Alcotest.(check bool) "20 trips" true (Budget.tick b Budget.Exact_bb);
  match Budget.tripped b with
  | Some { Budget.reason = Budget.Deadline 10.0; tick = 20; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_interrupt () =
  (* interrupt is the cooperative kill used by the signal traps and the
     daemon drain: the very next checkpoint trips with Interrupted *)
  let b = Budget.create () in
  Alcotest.(check bool) "before" false (Budget.tick b Budget.Subgradient);
  Budget.interrupt b;
  Alcotest.(check bool) "flag set" true (Budget.interrupted b);
  Alcotest.(check bool) "trip pending" true (Budget.tripped b = None);
  Alcotest.(check bool) "next tick trips" true (Budget.tick b Budget.Exact_bb);
  (match Budget.tripped b with
  | Some { Budget.reason = Budget.Interrupted; site = Budget.Exact_bb; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none"));
  (* sticky, like any other trip *)
  Alcotest.(check bool) "sticky" true (Budget.tick b Budget.Subgradient)

let test_interrupt_propagates_to_forks () =
  (* the drain sweep interrupts the parent; children forked before AND
     after must both see it — they share the parent's limits record *)
  let parent = Budget.create () in
  let early = Budget.fork parent in
  Budget.interrupt parent;
  let late = Budget.fork parent in
  List.iter
    (fun (name, b) ->
      Alcotest.(check bool) (name ^ " interrupted") true (Budget.interrupted b);
      Alcotest.(check bool) (name ^ " trips") true (Budget.tick b Budget.Subgradient))
    [ ("early fork", early); ("late fork", late); ("parent", parent) ];
  (* interrupting a child reaches the parent too: same shared flag *)
  let p2 = Budget.create () in
  let c2 = Budget.fork p2 in
  Budget.interrupt c2;
  Alcotest.(check bool) "parent sees child's interrupt" true (Budget.interrupted p2)

let test_interrupt_none_noop () =
  Budget.interrupt Budget.none;
  Alcotest.(check bool) "none stays inert" false (Budget.interrupted Budget.none);
  Alcotest.(check bool) "no trip" false (Budget.tick Budget.none Budget.Subgradient)

let test_fault_raise () =
  (* fault_raise simulates a crash escaping the solver: the checkpoint
     raises Injected_fault at the exact configured tick instead of
     winding down cooperatively (this is what the daemon's crash
     isolation is tested against) *)
  let b = Budget.create ~fault_after:3 ~fault_site:Budget.Subgradient ~fault_raise:true () in
  Alcotest.(check bool) "1" false (Budget.tick b Budget.Subgradient);
  Alcotest.(check bool) "2" false (Budget.tick b Budget.Subgradient);
  (match Budget.tick b Budget.Subgradient with
  | _ -> Alcotest.fail "third tick should raise"
  | exception Budget.Injected_fault { site = Budget.Subgradient; tick = 3 } -> ()
  | exception Budget.Injected_fault { site; tick } ->
    Alcotest.failf "wrong fault payload: %s tick %d" (Budget.string_of_site site) tick)

let test_site_names_roundtrip () =
  List.iter
    (fun s ->
      match Budget.site_of_string (Budget.string_of_site s) with
      | Some s' when s' = s -> ()
      | _ -> Alcotest.failf "site %s does not round-trip" (Budget.string_of_site s))
    Budget.all_sites;
  Alcotest.(check bool) "junk name" true (Budget.site_of_string "frobnicate" = None)

(* ------------------------------------------------------------------ *)
(* charge: a batch booked at once is the batch ticked one by one       *)
(* ------------------------------------------------------------------ *)

(* One governor setup, built twice: once to charge the batch, once to
   tick it.  [prefix] ticks before the batch can trip it (small limits)
   or, with [fault_raise], leave it past its fault; the fake clock is
   fixed either side of the deadline. *)
type charge_case = {
  inactive : bool;  (** [Budget.none] *)
  steps : int option;
  nodes : int option;
  fault_after : int option;
  fault_site : Budget.site option;
  fault_raise : bool;
  deadline_passed : bool option;  (** [None]: no timeout *)
  check_every : int;
  prefix : Budget.site list;
  interrupt : bool;
  batch : (Budget.site * int) list;
  after : Budget.site list;  (** the k further ticks *)
}

let print_charge_case c =
  let site = Budget.string_of_site in
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf
    "inactive %b steps %s nodes %s fault %s@%s raise %b deadline %s every %d \
     prefix [%s] interrupt %b batch [%s] after [%s]"
    c.inactive (opt string_of_int c.steps) (opt string_of_int c.nodes)
    (opt string_of_int c.fault_after) (opt site c.fault_site) c.fault_raise
    (opt string_of_bool c.deadline_passed) c.check_every
    (String.concat " " (List.map site c.prefix)) c.interrupt
    (String.concat " " (List.map (fun (s, k) -> Printf.sprintf "%s×%d" (site s) k) c.batch))
    (String.concat " " (List.map site c.after))

let arb_charge_case =
  let open QCheck.Gen in
  let site = oneofl Budget.all_sites and limit = opt (int_range 1 40) in
  let gen =
    let* inactive = frequency [ (1, return true); (9, return false) ] in
    let* steps = limit and* nodes = limit and* fault_after = limit in
    let* fault_site = opt site and* fault_raise = frequency [ (1, return true); (4, return false) ] in
    let* deadline_passed = opt bool and* check_every = int_range 1 8 in
    let* prefix = list_size (int_range 0 30) site in
    let* interrupt = frequency [ (1, return true); (6, return false) ] in
    let* batch = list_size (int_range 0 4) (pair site (int_range 0 25)) in
    let+ after = list_size (int_range 0 30) site in
    {
      inactive; steps; nodes; fault_after; fault_site; fault_raise; deadline_passed;
      check_every; prefix; interrupt; batch; after;
    }
  in
  QCheck.make ~print:print_charge_case gen

(* a tick's observable outcome: stop or go, or the injected crash *)
let tick_outcome b site =
  match Budget.tick b site with
  | stop -> Ok stop
  | exception Budget.Injected_fault { site; tick } -> Error (site, tick)

let stops = function Ok stop -> stop | Error _ -> true

let governor c =
  if c.inactive then Budget.none
  else begin
    let clock = ref 0. in
    let timeout = Option.map (fun _ -> 10.) c.deadline_passed in
    let b =
      Budget.create ?timeout ?steps:c.steps ?nodes:c.nodes ?fault_after:c.fault_after
        ?fault_site:c.fault_site ~fault_raise:c.fault_raise
        ~now:(fun () -> !clock) ~check_every:c.check_every ()
    in
    clock := (if c.deadline_passed = Some true then 11. else 5.);
    List.iter (fun s -> ignore (tick_outcome b s)) c.prefix;
    if c.interrupt then Budget.interrupt b;
    b
  end

let prop_charge_is_ticking =
  QCheck.Test.make ~name:"charge = the batch ticked one by one" ~count:2000
    arb_charge_case (fun c ->
      let charged = governor c and ticked = governor c and untouched = governor c in
      let accepted = Budget.charge charged c.batch in
      let stopped =
        List.exists
          (fun (site, k) -> List.exists stops (List.init k (fun _ -> tick_outcome ticked site)))
          c.batch
      in
      (* the k further ticks tell the governors' states apart: every
         count decides where a later tick trips *)
      let state b = (Budget.ticks b, Option.map Budget.describe (Budget.tripped b)) in
      let further b = List.map (tick_outcome b) c.after in
      let same b b' = state b = state b' && further b = further b' && state b = state b' in
      if accepted then (not stopped) && same charged ticked
      else stopped && same charged untouched)

let test_charge_edges () =
  let batch = [ (Budget.Dual_ascent, 3); (Budget.Subgradient, 5) ] in
  Alcotest.(check bool) "none accepts" true (Budget.charge Budget.none batch);
  Alcotest.(check int) "none stays at 0" 0 (Budget.ticks Budget.none);
  let b = Budget.create ~steps:8 () in
  Alcotest.(check bool) "exactly the budget" true (Budget.charge b batch);
  Alcotest.(check int) "booked" 8 (Budget.ticks b);
  Alcotest.(check bool) "one step over" false (Budget.charge b [ (Budget.Subgradient, 1) ]);
  Alcotest.(check bool) "node ticks are not steps" true
    (Budget.charge b [ (Budget.Exact_bb, 4) ]);
  Alcotest.(check bool) "empty batch" true (Budget.charge b []);
  Alcotest.(check bool) "next step trips" true (Budget.tick b Budget.Subgradient);
  Alcotest.(check bool) "tripped refuses" false (Budget.charge b [ (Budget.Parse, 1) ]);
  let i = Budget.create () in
  Budget.interrupt i;
  Alcotest.(check bool) "interrupted refuses" false (Budget.charge i batch);
  Alcotest.(check int) "nothing booked" 0 (Budget.ticks i);
  match Budget.charge (Budget.create ()) [ (Budget.Subgradient, -1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

(* ------------------------------------------------------------------ *)
(* fault-injection sweeps through Scg.solve                           *)
(* ------------------------------------------------------------------ *)

let quick_config =
  {
    Scg.Config.default with
    Scg.Config.num_iter = 2;
    subgradient =
      { Lagrangian.Subgradient.default_config with Lagrangian.Subgradient.max_steps = 60 };
  }

let difficult_matrices =
  lazy
    (List.map
       (fun i -> (i.Benchsuite.Registry.name, Benchsuite.Registry.matrix i))
       (Benchsuite.Registry.difficult ()))

let check_anytime_contract ~name ~site ~fault_after m (r : Scg.result) budget =
  let ctx = Printf.sprintf "%s/%s/after-%d" name (Budget.string_of_site site) fault_after in
  Alcotest.(check bool) (ctx ^ ": cover feasible") true (Matrix.covers m r.Scg.solution);
  Alcotest.(check int) (ctx ^ ": cost consistent") (Matrix.cost_of m r.Scg.solution)
    r.Scg.cost;
  Alcotest.(check bool)
    (ctx ^ ": lower bound valid")
    true
    (r.Scg.lower_bound >= 0 && r.Scg.lower_bound <= r.Scg.cost);
  match Budget.tripped budget with
  | Some trip ->
    Alcotest.(check bool)
      (ctx ^ ": trip at the injected site")
      true (trip.Budget.site = site);
    (match r.Scg.status with
    | Scg.Feasible_budget_exhausted t ->
      Alcotest.(check bool) (ctx ^ ": status carries the trip") true (t = trip)
    | Scg.Optimal ->
      (* legal: the trip fired after optimality was already certified on
         this component, or the partial bound still closed the gap *)
      Alcotest.(check bool) (ctx ^ ": optimal claim holds") true
        (r.Scg.cost = r.Scg.lower_bound)
    | Scg.Feasible -> Alcotest.failf "%s: trip not reflected in status" ctx);
    Alcotest.(check bool)
      (ctx ^ ": stats record the trip")
      true
      (r.Scg.stats.Scg.Stats.budget_trip <> None)
  | None ->
    (* the loop never reached the fault threshold: a normal run *)
    (match r.Scg.status with
    | Scg.Feasible_budget_exhausted _ -> Alcotest.failf "%s: phantom trip" ctx
    | Scg.Optimal | Scg.Feasible -> ());
    Alcotest.(check bool)
      (ctx ^ ": stats clean")
      true
      (r.Scg.stats.Scg.Stats.budget_trip = None)

let scg_sites =
  [ Budget.Implicit_reduce; Budget.Explicit_reduce; Budget.Subgradient; Budget.Dual_ascent ]

(* The implicit phase runs only above the MaxR/MaxC guards, and every
   difficult instance is within the default ones: its leg runs with
   MaxR = 0, where the first step is a checkpoint, so the earliest fault
   must trip inside the phase. *)
let test_fault_sweep () =
  List.iter
    (fun (name, m) ->
      List.iter
        (fun site ->
          let config =
            if site = Budget.Implicit_reduce then
              { quick_config with Scg.Config.max_rows_implicit = 0 }
            else quick_config
          in
          List.iter
            (fun fault_after ->
              let budget = Budget.create ~fault_after ~fault_site:site () in
              let r = Scg.solve ~budget ~config m in
              if site = Budget.Implicit_reduce && fault_after = 1 then
                Alcotest.(check bool)
                  (name ^ ": the implicit phase trips")
                  true
                  (Budget.tripped budget <> None);
              check_anytime_contract ~name ~site ~fault_after m r budget)
            [ 1; 4; 16 ])
        scg_sites)
    (Lazy.force difficult_matrices)

let test_step_budget_scg () =
  (* a coarse budget rather than a pinpoint fault: same contract *)
  let name, m = List.hd (Lazy.force difficult_matrices) in
  let budget = Budget.create ~steps:25 () in
  let r = Scg.solve ~budget ~config:quick_config m in
  (match Budget.tripped budget with
  | Some trip ->
    check_anytime_contract ~name ~site:trip.Budget.site ~fault_after:0 m r budget
  | None -> Alcotest.fail "a 25-step budget should trip on a difficult instance");
  (* node budget trips in the reduction engines *)
  let name, m = List.nth (Lazy.force difficult_matrices) 1 in
  let budget = Budget.create ~nodes:10 () in
  let r = Scg.solve ~budget ~config:quick_config m in
  match Budget.tripped budget with
  | Some trip ->
    check_anytime_contract ~name ~site:trip.Budget.site ~fault_after:0 m r budget
  | None -> Alcotest.fail "a 10-node budget should trip on a difficult instance"

let test_deadline_scg () =
  let name, m = List.hd (Lazy.force difficult_matrices) in
  let budget = Budget.create ~timeout:0.0 ~check_every:1 () in
  let r = Scg.solve ~budget ~config:quick_config m in
  match Budget.tripped budget with
  | Some trip ->
    (match trip.Budget.reason with
    | Budget.Deadline _ -> ()
    | other ->
      Alcotest.failf "expected a deadline trip, got %s"
        (Fmt.str "%a" Budget.pp_reason other));
    check_anytime_contract ~name ~site:trip.Budget.site ~fault_after:0 m r budget
  | None -> Alcotest.fail "a zero deadline must trip"

(* ------------------------------------------------------------------ *)
(* the other governed engines                                         *)
(* ------------------------------------------------------------------ *)

let test_exact_budget () =
  let m = Test_support.medium_matrix_of_seed 42 in
  let full = Covering.Exact.solve m in
  List.iter
    (fun fault_after ->
      let budget = Budget.create ~fault_after ~fault_site:Budget.Exact_bb () in
      let r = Covering.Exact.solve ~budget m in
      (* fresh matrix: identifiers = indices *)
      Alcotest.(check bool) "feasible" true (Matrix.covers m r.Covering.Exact.solution);
      Alcotest.(check bool) "lb valid" true
        (r.Covering.Exact.lower_bound <= full.Covering.Exact.cost);
      Alcotest.(check bool) "cost bounded below by optimum" true
        (r.Covering.Exact.cost >= full.Covering.Exact.cost))
    [ 1; 2; 8; 64 ]

let test_dual_ascent_budget () =
  let m = Test_support.medium_matrix_of_seed 7 in
  let full = Lagrangian.Dual_ascent.run m in
  let budget = Budget.create ~fault_after:1 ~fault_site:Budget.Dual_ascent () in
  let tripped = Lagrangian.Dual_ascent.run ~budget m in
  (* still dual feasible: column loads within costs *)
  let ok = ref true in
  for j = 0 to Matrix.n_cols m - 1 do
    let load =
      Array.fold_left (fun acc i -> acc +. tripped.Lagrangian.Dual_ascent.m.(i)) 0.
        (Matrix.col m j)
    in
    if load > float_of_int (Matrix.cost m j) +. 1e-6 then ok := false
  done;
  Alcotest.(check bool) "dual feasible after trip" true !ok;
  Alcotest.(check bool) "bound weaker but non-negative" true
    (tripped.Lagrangian.Dual_ascent.value >= 0.
    && tripped.Lagrangian.Dual_ascent.value <= full.Lagrangian.Dual_ascent.value +. 1e-6)

let test_espresso_budget () =
  let pla = Logic.Pla.parse ".i 4\n.o 1\n.type fd\n1--- 1\n-1-- 1\n--1- 1\n---1 1\n1111 -\n.e" in
  let on = Logic.Pla.onset pla 0 and dc = Logic.Pla.dcset pla 0 in
  List.iter
    (fun fault_after ->
      let budget = Budget.create ~fault_after ~fault_site:Budget.Espresso_loop () in
      let r = Espresso.minimise ~budget ~mode:Espresso.Strong ~on ~dc () in
      (* whatever happened, the result is a cover of ON within ON ∪ DC *)
      List.iter
        (fun c ->
          Alcotest.(check bool) "covers ON" true
            (Logic.Cover.covers_cube (Logic.Cover.union r.Espresso.cover dc) c))
        (Logic.Cover.cubes on);
      if Budget.tripped budget <> None then
        Alcotest.(check bool) "interrupted flagged" true r.Espresso.interrupted)
    [ 1; 2; 5 ]

(* ------------------------------------------------------------------ *)
(* differential: governed-but-unlimited ≡ ungoverned                  *)
(* ------------------------------------------------------------------ *)

let test_differential () =
  List.iter
    (fun (name, m) ->
      let plain = Scg.solve ~config:quick_config m in
      let governed = Scg.solve ~budget:(Budget.create ()) ~config:quick_config m in
      let ctx f = name ^ ": " ^ f in
      Alcotest.(check (list int)) (ctx "solution") plain.Scg.solution governed.Scg.solution;
      Alcotest.(check int) (ctx "cost") plain.Scg.cost governed.Scg.cost;
      Alcotest.(check int) (ctx "lower bound") plain.Scg.lower_bound
        governed.Scg.lower_bound;
      Alcotest.(check bool) (ctx "optimal") plain.Scg.proven_optimal
        governed.Scg.proven_optimal;
      Alcotest.(check bool) (ctx "status") true (plain.Scg.status = governed.Scg.status);
      Alcotest.(check int) (ctx "steps") plain.Scg.stats.Scg.Stats.subgradient_steps
        governed.Scg.stats.Scg.Stats.subgradient_steps;
      Alcotest.(check int) (ctx "iterations") plain.Scg.stats.Scg.Stats.iterations
        governed.Scg.stats.Scg.Stats.iterations;
      Alcotest.(check int) (ctx "fixes") plain.Scg.stats.Scg.Stats.fixes
        governed.Scg.stats.Scg.Stats.fixes;
      Alcotest.(check int) (ctx "penalty fixes") plain.Scg.stats.Scg.Stats.penalty_fixes
        governed.Scg.stats.Scg.Stats.penalty_fixes)
    (Lazy.force difficult_matrices)

(* ------------------------------------------------------------------ *)
(* fsm: the governor reaches the binate branch-and-bound               *)
(* ------------------------------------------------------------------ *)

let fsm_tr input source next output =
  { Fsm.Machine.input = Logic.Cube.of_string input; source; next; output }

(* s1 and s2 are equivalent, so a closed cover exists and the binate
   search does real branching (same machine as test_fsm's mergeable) *)
let fsm_machine () =
  Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "s0"; "s1"; "s2" |] ~reset:0
    [
      fsm_tr "0" 0 (Some 1) "0";
      fsm_tr "1" 0 (Some 2) "1";
      fsm_tr "0" 1 (Some 0) "1";
      fsm_tr "1" 1 (Some 1) "0";
      fsm_tr "0" 2 (Some 0) "1";
      fsm_tr "1" 2 (Some 2) "0";
    ]

(* A trip must stop an in-flight minimisation at the branch-and-bound
   checkpoint: either the search winds down to an incumbent
   ([optimal = false]) or — when the trip fires before any closed cover
   was seen — minimise raises its typed Invalid_argument.  Both are
   acceptable ends; what the test pins is that the governor tripped at
   [Exact_bb] at all (before this fix only the node cap reached the
   binate search, so deadlines, drain and fault injection sailed by). *)
let check_fsm_stopped b =
  (match Fsm.Minimise.minimise ~budget:b (fsm_machine ()) with
  | r -> Alcotest.(check bool) "wound down" false r.Fsm.Minimise.optimal
  | exception Invalid_argument _ -> ());
  Budget.tripped b

let test_fsm_trip_site () =
  let b = Budget.create ~fault_after:1 ~fault_site:Budget.Exact_bb () in
  match check_fsm_stopped b with
  | Some { Budget.site = Budget.Exact_bb; reason = Budget.Fault_injected 1; _ } ->
    ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_fsm_interrupt () =
  (* the daemon's drain path: Budget.interrupt from outside the solve *)
  let b = Budget.create () in
  Budget.interrupt b;
  match check_fsm_stopped b with
  | Some { Budget.site = Budget.Exact_bb; reason = Budget.Interrupted; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_fsm_deadline () =
  (* an already-expired deadline trips on the very first search node
     (check_every 1: the tiny search must not finish between clock reads) *)
  let b = Budget.create ~timeout:0. ~check_every:1 () in
  match check_fsm_stopped b with
  | Some { Budget.site = Budget.Exact_bb; reason = Budget.Deadline _; _ } -> ()
  | t ->
    Alcotest.failf "wrong trip: %s"
      (match t with Some t -> Budget.describe t | None -> "none")

let test_fsm_differential () =
  (* an active but unlimited governor changes nothing *)
  let plain = Fsm.Minimise.minimise (fsm_machine ()) in
  let governed = Fsm.Minimise.minimise ~budget:(Budget.create ()) (fsm_machine ()) in
  Alcotest.(check int) "states" plain.Fsm.Minimise.minimised_states
    governed.Fsm.Minimise.minimised_states;
  Alcotest.(check bool) "optimal" plain.Fsm.Minimise.optimal
    governed.Fsm.Minimise.optimal;
  Alcotest.(check int) "nodes" plain.Fsm.Minimise.nodes governed.Fsm.Minimise.nodes;
  Alcotest.(check bool) "chosen" true
    (plain.Fsm.Minimise.chosen = governed.Fsm.Minimise.chosen)

let () =
  Alcotest.run "budget"
    [
      ( "ticks",
        [
          Alcotest.test_case "none is inert" `Quick test_none_inert;
          Alcotest.test_case "unlimited never trips" `Quick test_unlimited_active;
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "fault site filter" `Quick test_fault_site_filter;
          Alcotest.test_case "deadline, fake clock" `Quick test_deadline_fake_clock;
          Alcotest.test_case "interrupt" `Quick test_interrupt;
          Alcotest.test_case "interrupt reaches forks" `Quick
            test_interrupt_propagates_to_forks;
          Alcotest.test_case "interrupt none no-op" `Quick test_interrupt_none_noop;
          Alcotest.test_case "fault raise" `Quick test_fault_raise;
          Alcotest.test_case "site names" `Quick test_site_names_roundtrip;
          Alcotest.test_case "charge edges" `Quick test_charge_edges;
          QCheck_alcotest.to_alcotest prop_charge_is_ticking;
        ] );
      ( "scg",
        [
          Alcotest.test_case "fault sweep, all sites" `Quick test_fault_sweep;
          Alcotest.test_case "step/node budgets" `Quick test_step_budget_scg;
          Alcotest.test_case "deadline" `Quick test_deadline_scg;
          Alcotest.test_case "differential" `Quick test_differential;
        ] );
      ( "engines",
        [
          Alcotest.test_case "exact" `Quick test_exact_budget;
          Alcotest.test_case "dual ascent" `Quick test_dual_ascent_budget;
          Alcotest.test_case "espresso" `Quick test_espresso_budget;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "trip site" `Quick test_fsm_trip_site;
          Alcotest.test_case "interrupt" `Quick test_fsm_interrupt;
          Alcotest.test_case "deadline" `Quick test_fsm_deadline;
          Alcotest.test_case "differential" `Quick test_fsm_differential;
        ] );
    ]
