(* Golden corpus: the full ZDD_SCG answer under the default configuration,
   pinned for the registry's difficult and dense instances, a few seeded
   generator cores, the registry's scale tier under a 2,000-step budget,
   and the registry's two-level and multi-output instances.  Each answer
   is one line: cost, lower bound, status, subgradient steps, heuristic
   and penalty fixes, iterations, best iteration and the cover itself.
   Any change to the Lagrangian kernels, the greedy or the descent that
   moves one float moves one of these numbers.  The two-level matrices
   come from the [Covering.From_logic] bridge and the cover lists column
   indices, so these lines also pin the bridge's row and column order.

   A second group pins the exact branch and bound ([Covering.Exact]) under
   a node cap: cost, lower bound, optimality, nodes expanded and the
   cover, for every easy, difficult, dense and challenging registry
   instance it proves optimal within the cap.  The node count follows
   every reduction and branching decision of the search, so these lines
   pin the explicit reductions Exact runs at each node.

   The expected lines live in [golden.expected], the Exact group after
   the SCG group, each Exact line prefixed with [exact].  After a
   declared change of behaviour, regenerate them with

     dune exec test/test_golden.exe -- --print > test/golden.expected *)

module Matrix = Covering.Matrix
module Registry = Benchsuite.Registry

(* parity4 … mpla-6x4: the registry instances built through the bridge *)
let through_bridge inst =
  match Lazy.force inst.Registry.problem with
  | Registry.Two_level _ | Registry.Multi_level _ -> true
  | Registry.Raw _ -> false

(* (name, matrix, subgradient-step budget) *)
let corpus () =
  let registry ?steps inst = (inst.Registry.name, (fun () -> Registry.matrix inst), steps) in
  List.map registry (Registry.difficult ())
  @ List.map registry (Registry.dense ())
  @ List.map (fun (name, steps, build) -> (name, build, steps)) Test_support.golden_cores
  (* a step budget, never a wall-clock one, keeps these answers the same
     on every machine; the planted two reach their certificates (800 and
     300, twice the block count) *)
  @ List.map (registry ~steps:2_000) (Registry.scale ())
  @ List.map registry (List.filter through_bridge (Registry.easy ()))

let status_string = function
  | Scg.Optimal -> "optimal"
  | Scg.Feasible -> "feasible"
  | Scg.Feasible_budget_exhausted trip -> "budget:" ^ Scg.Budget.describe trip

let answer (name, build, steps) =
  let budget =
    match steps with
    | Some steps -> Scg.Budget.create ~steps ()
    | None -> Scg.Budget.none
  in
  let r = Scg.solve ~budget ~config:Scg.Config.default (build ()) in
  let s = r.Scg.stats in
  Printf.sprintf
    "%s cost=%d lb=%d status=%s steps=%d fixes=%d penalty_fixes=%d \
     iterations=%d best_iteration=%d cover=%s"
    name r.Scg.cost r.Scg.lower_bound (status_string r.Scg.status)
    s.Scg.Stats.subgradient_steps s.Scg.Stats.fixes s.Scg.Stats.penalty_fixes
    s.Scg.Stats.iterations s.Scg.Stats.best_iteration
    (String.concat "," (List.map string_of_int r.Scg.solution))

let exact_max_nodes = 5_000

let exact_suite () =
  Registry.easy () @ Registry.difficult () @ Registry.dense ()
  @ Registry.challenging ()

let exact_prefix = "exact "

let exact_answer inst =
  let r = Covering.Exact.solve ~max_nodes:exact_max_nodes (Registry.matrix inst) in
  ( r.Covering.Exact.optimal,
    Printf.sprintf "%s%s cost=%d lb=%d optimal=%b nodes=%d cover=%s" exact_prefix
      inst.Registry.name r.Covering.Exact.cost r.Covering.Exact.lower_bound
      r.Covering.Exact.optimal r.Covering.Exact.nodes
      (String.concat "," (List.map string_of_int r.Covering.Exact.solution)) )

(* the instance an Exact line pins: the word after the prefix *)
let exact_name line = List.nth (String.split_on_char ' ' line) 1

(* [dune runtest] runs in the test directory, [dune exec] at the root *)
let expected () =
  let file =
    if Sys.file_exists "golden.expected" then "golden.expected"
    else Filename.concat "test" "golden.expected"
  in
  let ic = open_in file in
  let rec lines acc =
    match input_line ic with
    | l -> lines (if l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  lines []

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    List.iter (fun c -> print_endline (answer c)) (corpus ());
    List.iter
      (fun inst ->
        let optimal, line = exact_answer inst in
        if optimal then print_endline line)
      (exact_suite ())
  end
  else begin
    let corpus = corpus () in
    let exact, expected =
      List.partition (String.starts_with ~prefix:exact_prefix) (expected ())
    in
    if List.length expected <> List.length corpus then
      failwith "golden.expected: one line per corpus instance expected";
    Alcotest.run "golden"
      [
        ( "scg",
          List.map2
            (fun ((name, _, _) as c) want ->
              Alcotest.test_case name `Quick (fun () ->
                  Alcotest.(check string) name want (answer c)))
            corpus expected );
        ( "exact",
          List.map
            (fun want ->
              let name = exact_name want in
              Alcotest.test_case name `Quick (fun () ->
                  Alcotest.(check string) name want
                    (snd (exact_answer (Registry.find name)))))
            exact );
      ]
  end
