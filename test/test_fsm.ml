(* Tests for the FSM state-minimisation application of binate covering:
   KISS parsing, Paull-Unger compatibility, prime compatibles, and the
   minimiser — with Hopcroft-style partition refinement as an independent
   oracle on completely specified machines. *)

let check = Alcotest.(check bool)

let tr input source next output =
  { Fsm.Machine.input = Logic.Cube.of_string input; source; next; output }

(* s1 and s2 are equivalent; the machine must shrink to 2 states *)
let mergeable_machine () =
  Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "s0"; "s1"; "s2" |] ~reset:0
    [
      tr "0" 0 (Some 1) "0";
      tr "1" 0 (Some 2) "1";
      tr "0" 1 (Some 0) "1";
      tr "1" 1 (Some 1) "0";
      tr "0" 2 (Some 0) "1";
      tr "1" 2 (Some 2) "0";
    ]

let incompressible_machine () =
  (* outputs distinguish every pair immediately *)
  Fsm.Machine.create ~ni:1 ~no:2 ~states:[| "a"; "b"; "c" |]
    [
      tr "-" 0 (Some 0) "00";
      tr "-" 1 (Some 1) "01";
      tr "-" 2 (Some 2) "10";
    ]

let fully_unspecified_machine () =
  Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a"; "b"; "c"; "d" |]
    [
      tr "0" 0 (Some 1) "-";
      tr "0" 1 (Some 2) "-";
      tr "0" 2 (Some 3) "-";
      tr "0" 3 (Some 0) "-";
    ]

(* ------------------------------------------------------------------ *)
(* Machine                                                            *)
(* ------------------------------------------------------------------ *)

let test_machine_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "overlapping cubes" true
    (raises (fun () ->
         ignore
           (Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a" |]
              [ tr "-" 0 (Some 0) "0"; tr "1" 0 (Some 0) "1" ])));
  check "bad output" true
    (raises (fun () ->
         ignore (Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a" |] [ tr "0" 0 None "x" ])));
  check "state range" true
    (raises (fun () ->
         ignore (Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a" |] [ tr "0" 0 (Some 3) "0" ])))

let test_machine_step () =
  let m = mergeable_machine () in
  (match Fsm.Machine.step m ~state:0 ~input:1 with
  | Some (Some 2, "1") -> ()
  | _ -> Alcotest.fail "wrong step");
  check "unspecified" true (Fsm.Machine.step (fully_unspecified_machine ()) ~state:0 ~input:1 = None)

let test_output_conflict () =
  check "conflict" true (Fsm.Machine.output_conflict ~no:2 "0-" "1-");
  check "no conflict via dash" false (Fsm.Machine.output_conflict ~no:2 "0-" "-1");
  check "equal" false (Fsm.Machine.output_conflict ~no:2 "01" "01")

(* ------------------------------------------------------------------ *)
(* Kiss                                                               *)
(* ------------------------------------------------------------------ *)

let test_kiss_round_trip () =
  let m = mergeable_machine () in
  let m2 = Fsm.Kiss.parse (Fsm.Kiss.to_string m) in
  Alcotest.(check int) "states" 3 (Fsm.Machine.n_states m2);
  check "same behaviour" true (Fsm.Minimise.simulate_agrees m m2);
  check "same behaviour rev" true (Fsm.Minimise.simulate_agrees m2 m)

let test_kiss_parse () =
  let text = ".i 2\n.o 1\n.r s0\n0- s0 s1 1\n1- s0 s0 0\n-- s1 - -\n.e\n" in
  let m = Fsm.Kiss.parse text in
  Alcotest.(check int) "two states" 2 (Fsm.Machine.n_states m);
  check "reset" true (m.Fsm.Machine.reset = Some 0);
  (match Fsm.Machine.step m ~state:1 ~input:0 with
  | Some (None, "-") -> ()
  | _ -> Alcotest.fail "unspecified next expected")

let test_kiss_errors () =
  let raises s =
    try ignore (Fsm.Kiss.parse s); false
    with Logic.Parse_error.Parse_error _ -> true
  in
  check "missing .i" true (raises ".o 1\n0 a a 1\n");
  check "width" true (raises ".i 2\n.o 1\n0 a a 1\n");
  check "junk" true (raises ".i 1\n.o 1\n0 a\n")

(* ------------------------------------------------------------------ *)
(* Compat                                                             *)
(* ------------------------------------------------------------------ *)

let test_compat_pairs () =
  let t = Fsm.Compat.analyse (mergeable_machine ()) in
  check "s1 s2 compatible" false (Fsm.Compat.pairs_incompatible t 1 2);
  check "s0 s1 incompatible" true (Fsm.Compat.pairs_incompatible t 0 1);
  let t2 = Fsm.Compat.analyse (incompressible_machine ()) in
  check "all pairs incompatible" true
    (Fsm.Compat.pairs_incompatible t2 0 1
    && Fsm.Compat.pairs_incompatible t2 0 2
    && Fsm.Compat.pairs_incompatible t2 1 2)

let test_compat_chained_incompatibility () =
  (* outputs agree everywhere, but implied pairs propagate a conflict:
     a,b imply (c,d) which conflicts on output *)
  let m =
    Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a"; "b"; "c"; "d" |]
      [
        tr "0" 0 (Some 2) "-";
        tr "0" 1 (Some 3) "-";
        tr "1" 2 (Some 2) "0";
        tr "1" 3 (Some 3) "1";
      ]
  in
  let t = Fsm.Compat.analyse m in
  check "c d incompatible" true (Fsm.Compat.pairs_incompatible t 2 3);
  check "a b incompatible by closure" true (Fsm.Compat.pairs_incompatible t 0 1)

let test_all_compatibles () =
  let t = Fsm.Compat.analyse (fully_unspecified_machine ()) in
  (* everything is compatible: 2^4 - 1 non-empty subsets *)
  Alcotest.(check int) "15 compatibles" 15 (List.length (Fsm.Compat.all_compatibles t));
  let t2 = Fsm.Compat.analyse (incompressible_machine ()) in
  Alcotest.(check int) "singletons only" 3 (List.length (Fsm.Compat.all_compatibles t2))

let test_implied_classes () =
  let m = mergeable_machine () in
  let t = Fsm.Compat.analyse m in
  (* the pair {s1, s2} maps to s0 on 0 and to {s1, s2} on 1: no external
     class of size >= 2 *)
  Alcotest.(check (list (list int))) "closed pair" [] (Fsm.Compat.implied_classes t [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Minimise                                                           *)
(* ------------------------------------------------------------------ *)

let test_minimise_mergeable () =
  let m = mergeable_machine () in
  let r = Fsm.Minimise.minimise m in
  Alcotest.(check int) "two states" 2 r.Fsm.Minimise.minimised_states;
  check "optimal" true r.Fsm.Minimise.optimal;
  check "behaviour preserved" true (Fsm.Minimise.simulate_agrees m r.Fsm.Minimise.machine)

let test_minimise_incompressible () =
  let m = incompressible_machine () in
  let r = Fsm.Minimise.minimise m in
  Alcotest.(check int) "still three" 3 r.Fsm.Minimise.minimised_states

let test_minimise_fully_unspecified () =
  let m = fully_unspecified_machine () in
  let r = Fsm.Minimise.minimise m in
  Alcotest.(check int) "one state" 1 r.Fsm.Minimise.minimised_states;
  check "behaviour preserved" true (Fsm.Minimise.simulate_agrees m r.Fsm.Minimise.machine)

(* Oracle for completely specified machines: partition refinement. *)
let refinement_minimum (m : Fsm.Machine.t) =
  let n = Fsm.Machine.n_states m in
  let inputs = 1 lsl m.Fsm.Machine.ni in
  let signature block s =
    List.init inputs (fun x ->
        match Fsm.Machine.step m ~state:s ~input:x with
        | Some (Some nxt, out) -> (block.(nxt), out)
        | Some (None, _) | None -> assert false)
  in
  let block = Array.make n 0 in
  (* initial split by output behaviour *)
  let out_sig s =
    List.init inputs (fun x ->
        match Fsm.Machine.step m ~state:s ~input:x with
        | Some (_, out) -> out
        | None -> assert false)
  in
  (* blocks are keyed by the signatures themselves: a hash of them would
     merge distinct signatures ([Hashtbl.hash] reads only the first few
     values of a list) and undercount the minimum *)
  let assign key_of =
    let table = Hashtbl.create 16 in
    let next = ref 0 in
    Array.mapi
      (fun s _ ->
        let key = key_of s in
        match Hashtbl.find_opt table key with
        | Some b -> b
        | None ->
          let b = !next in
          incr next;
          Hashtbl.replace table key b;
          b)
      block
  in
  let current = ref (assign (fun s -> out_sig s)) in
  let changed = ref true in
  while !changed do
    Array.blit !current 0 block 0 n;
    let refined = assign (fun s -> (out_sig s, signature block s)) in
    changed := refined <> !current;
    current := refined
  done;
  1 + Array.fold_left max 0 !current

let random_complete_machine seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 5 in
  let ni = 1 + Random.State.int rng 2 in
  let no = 1 + Random.State.int rng 2 in
  let transitions = ref [] in
  for s = 0 to n - 1 do
    for x = 0 to (1 lsl ni) - 1 do
      let input =
        Logic.Cube.of_literals ni (List.init ni (fun b -> (b, x land (1 lsl b) <> 0)))
      in
      let next = Some (Random.State.int rng n) in
      let output = String.init no (fun _ -> if Random.State.bool rng then '1' else '0') in
      transitions := { Fsm.Machine.input; source = s; next; output } :: !transitions
    done
  done;
  Fsm.Machine.create ~ni ~no
    ~states:(Array.init n (Printf.sprintf "s%d"))
    ~reset:0 !transitions

let prop_minimise_matches_refinement =
  QCheck.Test.make ~name:"binate minimisation = partition refinement (CSM)" ~count:60
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)) (fun seed ->
      let m = random_complete_machine seed in
      let r = Fsm.Minimise.minimise m in
      r.Fsm.Minimise.optimal
      && r.Fsm.Minimise.minimised_states = refinement_minimum m
      && Fsm.Minimise.simulate_agrees m r.Fsm.Minimise.machine)

let prop_minimise_never_grows =
  QCheck.Test.make ~name:"minimisation never grows the machine" ~count:40
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)) (fun seed ->
      let m = random_complete_machine seed in
      let r = Fsm.Minimise.minimise m in
      r.Fsm.Minimise.minimised_states <= Fsm.Machine.n_states m)

(* ------------------------------------------------------------------ *)
(* Synth                                                              *)
(* ------------------------------------------------------------------ *)

let test_synth_state_bits () =
  Alcotest.(check int) "3 states -> 2 bits" 2 (Fsm.Synth.state_bits (mergeable_machine ()));
  let one = Fsm.Machine.create ~ni:1 ~no:1 ~states:[| "a" |] [ tr "-" 0 (Some 0) "1" ] in
  Alcotest.(check int) "1 state -> 1 bit" 1 (Fsm.Synth.state_bits one)

let check_implementation m =
  let bits = Fsm.Synth.state_bits m in
  let pla, r = Fsm.Synth.implement m in
  check "solver verified" true (r.Scg.cost = List.length pla.Logic.Pla.rows);
  (* walk every (state, input): outputs and next states must match the
     specification wherever it specifies them *)
  for s = 0 to Fsm.Machine.n_states m - 1 do
    for x = 0 to (1 lsl m.Fsm.Machine.ni) - 1 do
      match Fsm.Machine.step m ~state:s ~input:x with
      | None -> ()
      | Some (next_spec, out_spec) ->
        let next_got, out_got =
          Fsm.Synth.simulate_pla pla ~n_inputs:m.Fsm.Machine.ni ~state_bits:bits
            ~state:s ~input:x
        in
        check "output agrees" true
          (not (Fsm.Machine.output_conflict ~no:m.Fsm.Machine.no out_spec out_got));
        (match next_spec with
        | Some t -> Alcotest.(check int) "next agrees" t next_got
        | None -> ())
    done
  done

let test_synth_complete_machine () = check_implementation (random_complete_machine 7)

let test_synth_mergeable () = check_implementation (mergeable_machine ())

(* every transition of this machine goes to state 0 with output 0, so no
   bit of its logic is ever 1: the empty PLA implements it at cost 0 *)
let test_synth_no_on_minterm () =
  let m = random_complete_machine 925173 in
  Alcotest.(check (pair int int)) "2 states, 1 input" (2, 1)
    (Fsm.Machine.n_states m, m.Fsm.Machine.ni);
  check_implementation m;
  let pla, r = Fsm.Synth.implement m in
  Alcotest.(check int) "no rows" 0 (List.length pla.Logic.Pla.rows);
  Alcotest.(check int) "cost 0" 0 r.Scg.cost;
  check "optimal" true r.Scg.proven_optimal

let prop_synth_correct =
  QCheck.Test.make ~name:"synthesised PLA implements the machine" ~count:25
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)) (fun seed ->
      check_implementation (random_complete_machine seed);
      true)

let test_minimise_then_synth () =
  (* the full KISS flow: state-minimise, then synthesise the logic *)
  let m = mergeable_machine () in
  let red = Fsm.Minimise.minimise m in
  let pla, r = Fsm.Synth.implement red.Fsm.Minimise.machine in
  check "rows positive" true (List.length pla.Logic.Pla.rows > 0);
  check "proven or at least feasible" true (r.Scg.cost >= 1);
  (* 2 states fit in 1 bit: fewer logic inputs than the 3-state encoding *)
  Alcotest.(check int) "narrow encoding" (1 + 1) pla.Logic.Pla.ni

let () =
  Alcotest.run "fsm"
    [
      ( "machine",
        [
          Alcotest.test_case "validation" `Quick test_machine_validation;
          Alcotest.test_case "step" `Quick test_machine_step;
          Alcotest.test_case "output conflict" `Quick test_output_conflict;
        ] );
      ( "kiss",
        [
          Alcotest.test_case "round trip" `Quick test_kiss_round_trip;
          Alcotest.test_case "parse" `Quick test_kiss_parse;
          Alcotest.test_case "errors" `Quick test_kiss_errors;
        ] );
      ( "compat",
        [
          Alcotest.test_case "pairs" `Quick test_compat_pairs;
          Alcotest.test_case "chained" `Quick test_compat_chained_incompatibility;
          Alcotest.test_case "all compatibles" `Quick test_all_compatibles;
          Alcotest.test_case "implied classes" `Quick test_implied_classes;
        ] );
      ( "minimise",
        [
          Alcotest.test_case "mergeable" `Quick test_minimise_mergeable;
          Alcotest.test_case "incompressible" `Quick test_minimise_incompressible;
          Alcotest.test_case "fully unspecified" `Quick test_minimise_fully_unspecified;
          QCheck_alcotest.to_alcotest prop_minimise_matches_refinement;
          QCheck_alcotest.to_alcotest prop_minimise_never_grows;
        ] );
      ( "synth",
        [
          Alcotest.test_case "state bits" `Quick test_synth_state_bits;
          Alcotest.test_case "complete machine" `Quick test_synth_complete_machine;
          Alcotest.test_case "mergeable machine" `Quick test_synth_mergeable;
          Alcotest.test_case "no ON-minterm" `Quick test_synth_no_on_minterm;
          QCheck_alcotest.to_alcotest prop_synth_correct;
          Alcotest.test_case "minimise then synth" `Quick test_minimise_then_synth;
        ] );
    ]
