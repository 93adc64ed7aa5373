(* Unit and property tests for the ROBDD engine.

   Strategy: random Boolean expression trees are compiled both to a BDD and
   to a direct evaluator; agreement on random assignments, plus the
   algebraic laws, pin down the engine. *)

let nvars = 6

type expr =
  | EVar of int
  | ENot of expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EXor of expr * expr
  | ETrue
  | EFalse

let rec eval_expr env = function
  | EVar i -> env.(i)
  | ENot e -> not (eval_expr env e)
  | EAnd (a, b) -> eval_expr env a && eval_expr env b
  | EOr (a, b) -> eval_expr env a || eval_expr env b
  | EXor (a, b) -> eval_expr env a <> eval_expr env b
  | ETrue -> true
  | EFalse -> false

let rec bdd_of_expr = function
  | EVar i -> Bdd.var i
  | ENot e -> Bdd.bnot (bdd_of_expr e)
  | EAnd (a, b) -> Bdd.band (bdd_of_expr a) (bdd_of_expr b)
  | EOr (a, b) -> Bdd.bor (bdd_of_expr a) (bdd_of_expr b)
  | EXor (a, b) -> Bdd.bxor (bdd_of_expr a) (bdd_of_expr b)
  | ETrue -> Bdd.one
  | EFalse -> Bdd.zero

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self depth ->
        if depth = 0 then
          oneof [ map (fun i -> EVar i) (int_bound (nvars - 1)); return ETrue; return EFalse ]
        else
          let sub = self (depth / 2) in
          frequency
            [
              (2, map (fun i -> EVar i) (int_bound (nvars - 1)));
              (2, map2 (fun a b -> EAnd (a, b)) sub sub);
              (2, map2 (fun a b -> EOr (a, b)) sub sub);
              (1, map2 (fun a b -> EXor (a, b)) sub sub);
              (1, map (fun e -> ENot e) sub);
            ]))

let arb_expr = QCheck.make ~print:(fun _ -> "<expr>") gen_expr

let all_envs =
  List.init (1 lsl nvars) (fun m -> Array.init nvars (fun i -> m land (1 lsl i) <> 0))

let check name = Alcotest.(check bool) name true

let test_constants () =
  check "zero is zero" (Bdd.is_zero Bdd.zero);
  check "one is one" (Bdd.is_one Bdd.one);
  check "not zero = one" (Bdd.equal (Bdd.bnot Bdd.zero) Bdd.one);
  check "var <> nvar" (not (Bdd.equal (Bdd.var 0) (Bdd.nvar 0)))

let test_simple_identities () =
  let x = Bdd.var 0 and y = Bdd.var 1 in
  check "x and not x = 0" (Bdd.is_zero (Bdd.band x (Bdd.bnot x)));
  check "x or not x = 1" (Bdd.is_one (Bdd.bor x (Bdd.bnot x)));
  check "x xor x = 0" (Bdd.is_zero (Bdd.bxor x x));
  check "commutativity" (Bdd.equal (Bdd.band x y) (Bdd.band y x));
  check "ite x 1 0 = x" (Bdd.equal (Bdd.bite x Bdd.one Bdd.zero) x);
  check "imp truth table"
    (Bdd.is_one (Bdd.bimp Bdd.zero Bdd.zero) && Bdd.is_zero (Bdd.bimp Bdd.one Bdd.zero))

let test_canonicity () =
  (* the same function built by different routes must be physically equal *)
  let x = Bdd.var 0 and y = Bdd.var 1 and z = Bdd.var 2 in
  let a = Bdd.bor (Bdd.band x y) (Bdd.band x z) in
  let b = Bdd.band x (Bdd.bor y z) in
  check "distribution is canonical" (Bdd.equal a b);
  let c = Bdd.bnot (Bdd.bnot a) in
  check "double negation" (Bdd.equal a c)

let test_cofactor () =
  let x = Bdd.var 0 and y = Bdd.var 1 in
  let f = Bdd.bor (Bdd.band x y) (Bdd.band (Bdd.bnot x) (Bdd.bnot y)) in
  check "cofactor x=1" (Bdd.equal (Bdd.cofactor f ~var:0 true) y);
  check "cofactor x=0" (Bdd.equal (Bdd.cofactor f ~var:0 false) (Bdd.bnot y))

let test_quantify () =
  let x = Bdd.var 0 and y = Bdd.var 1 in
  let f = Bdd.band x y in
  check "exists x (x and y) = y" (Bdd.equal (Bdd.exists [ 0 ] f) y);
  check "forall x (x and y) = 0" (Bdd.is_zero (Bdd.forall [ 0 ] f));
  check "exists both = 1" (Bdd.is_one (Bdd.exists [ 0; 1 ] f))

let test_support () =
  let f = Bdd.band (Bdd.var 1) (Bdd.bor (Bdd.var 3) (Bdd.nvar 5)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 5 ] (Bdd.support f)

let test_sat_count () =
  Alcotest.(check (float 1e-9)) "count one" 16. (Bdd.sat_count ~nvars:4 Bdd.one);
  Alcotest.(check (float 1e-9)) "count zero" 0. (Bdd.sat_count ~nvars:4 Bdd.zero);
  Alcotest.(check (float 1e-9)) "count var" 8. (Bdd.sat_count ~nvars:4 (Bdd.var 2));
  let f = Bdd.bxor (Bdd.var 0) (Bdd.var 3) in
  Alcotest.(check (float 1e-9)) "count xor" 8. (Bdd.sat_count ~nvars:4 f)

let test_cube_of_literals () =
  let c = Bdd.cube_of_literals [ (2, true); (0, false) ] in
  check "cube eval in" (Bdd.eval c (fun i -> i = 2));
  check "cube eval out" (not (Bdd.eval c (fun i -> i = 0 || i = 2)));
  Alcotest.(check (float 1e-9)) "cube count" 2. (Bdd.sat_count ~nvars:3 c)

let test_any_sat () =
  let f = Bdd.band (Bdd.var 1) (Bdd.nvar 3) in
  let assignment = Bdd.any_sat f in
  let env i = List.assoc_opt i assignment = Some true in
  check "any_sat satisfies" (Bdd.eval f env);
  Alcotest.check_raises "any_sat zero" Not_found (fun () -> ignore (Bdd.any_sat Bdd.zero))

let test_iter_sat () =
  let f = Bdd.bor (Bdd.band (Bdd.var 0) (Bdd.var 1)) (Bdd.nvar 2) in
  let count = ref 0 in
  Bdd.iter_sat ~nvars:3 f (fun env ->
      incr count;
      check "iter_sat member" (Bdd.eval f (fun i -> env.(i))));
  Alcotest.(check int) "iter_sat count" (int_of_float (Bdd.sat_count ~nvars:3 f)) !count

let test_engine_stats () =
  let before = Bdd.node_count () in
  let f = Bdd.bxor (Bdd.var 10) (Bdd.var 11) in
  check "nodes grew" (Bdd.node_count () > before - 1);
  Alcotest.(check int) "size of xor" 3 (Bdd.size f);
  Bdd.clear_caches ();
  (* canonical results survive a cache clear *)
  check "still canonical" (Bdd.equal f (Bdd.bxor (Bdd.var 10) (Bdd.var 11)))

let prop_shannon_expansion =
  QCheck.Test.make ~name:"shannon: f = x·f|x + x'·f|x'" ~count:100 arb_expr (fun e ->
      let f = bdd_of_expr e in
      List.for_all
        (fun v ->
          let hi = Bdd.cofactor f ~var:v true and lo = Bdd.cofactor f ~var:v false in
          Bdd.equal f (Bdd.bite (Bdd.var v) hi lo))
        [ 0; 2; 5 ])

let prop_quantifier_duality =
  QCheck.Test.make ~name:"forall = not exists not" ~count:100 arb_expr (fun e ->
      let f = bdd_of_expr e in
      Bdd.equal (Bdd.forall [ 1; 3 ] f) (Bdd.bnot (Bdd.exists [ 1; 3 ] (Bdd.bnot f))))

let prop_exists_brute_force =
  QCheck.Test.make ~name:"exists agrees with enumeration" ~count:60 arb_expr (fun e ->
      let f = bdd_of_expr e in
      let g = Bdd.exists [ 2 ] f in
      List.for_all
        (fun env ->
          let with_v b = Bdd.eval f (fun i -> if i = 2 then b else env.(i)) in
          Bdd.eval g (fun i -> env.(i)) = (with_v true || with_v false))
        all_envs)

let prop_support_is_exact =
  QCheck.Test.make ~name:"support lists exactly the relevant variables" ~count:80
    arb_expr (fun e ->
      let f = bdd_of_expr e in
      let support = Bdd.support f in
      List.for_all
        (fun v ->
          let relevant =
            not (Bdd.equal (Bdd.cofactor f ~var:v true) (Bdd.cofactor f ~var:v false))
          in
          relevant = List.mem v support)
        (List.init nvars Fun.id))

let prop_eval_agrees =
  QCheck.Test.make ~name:"bdd eval agrees with expression" ~count:200 arb_expr (fun e ->
      let f = bdd_of_expr e in
      List.for_all (fun env -> Bdd.eval f (fun i -> env.(i)) = eval_expr env e) all_envs)

let prop_de_morgan =
  QCheck.Test.make ~name:"de morgan" ~count:100 (QCheck.pair arb_expr arb_expr)
    (fun (a, b) ->
      let fa = bdd_of_expr a and fb = bdd_of_expr b in
      Bdd.equal (Bdd.bnot (Bdd.band fa fb)) (Bdd.bor (Bdd.bnot fa) (Bdd.bnot fb)))

let prop_sat_count_matches_enumeration =
  QCheck.Test.make ~name:"sat_count = brute enumeration" ~count:100 arb_expr (fun e ->
      let f = bdd_of_expr e in
      let brute =
        List.length (List.filter (fun env -> eval_expr env e) all_envs)
      in
      Float.abs (Bdd.sat_count ~nvars f -. float_of_int brute) < 0.5)

let prop_implies_is_subset =
  QCheck.Test.make ~name:"implies = minterm subset" ~count:100
    (QCheck.pair arb_expr arb_expr) (fun (a, b) ->
      let fa = bdd_of_expr a and fb = bdd_of_expr b in
      Bdd.implies fa fb
      = List.for_all (fun env -> (not (eval_expr env a)) || eval_expr env b) all_envs)

let prop_xor_via_or_and =
  QCheck.Test.make ~name:"xor = (a or b) diff (a and b)" ~count:100
    (QCheck.pair arb_expr arb_expr) (fun (a, b) ->
      let fa = bdd_of_expr a and fb = bdd_of_expr b in
      Bdd.equal (Bdd.bxor fa fb) (Bdd.bdiff (Bdd.bor fa fb) (Bdd.band fa fb)))

let test_parity_size () =
  (* the canonical BDD of an n-variable parity has exactly 2n - 1 internal
     nodes regardless of construction order — a sharp canonicity check *)
  List.iter
    (fun n ->
      let f = List.fold_left (fun acc i -> Bdd.bxor acc (Bdd.var i)) Bdd.zero (List.init n Fun.id) in
      Alcotest.(check int) (Printf.sprintf "parity%d size" n) ((2 * n) - 1) (Bdd.size f);
      let g =
        List.fold_left (fun acc i -> Bdd.bxor acc (Bdd.var i)) Bdd.zero
          (List.rev (List.init n Fun.id))
      in
      check "order-independent" (Bdd.equal f g))
    [ 2; 5; 10; 16 ]

let test_big_conjunction () =
  (* 40 variables: linear-size chain, exercises deep recursion *)
  let f = Bdd.conj (List.init 40 Bdd.var) in
  Alcotest.(check int) "chain size" 40 (Bdd.size f);
  Alcotest.(check (float 1.)) "single satisfying point" 1. (Bdd.sat_count ~nvars:40 f)

(* [intersects] must agree with the conjunction it avoids, and build no
   node doing so *)
let intersects_agrees f g =
  let before = Bdd.node_count () in
  let got = Bdd.intersects f g in
  Bdd.node_count () = before && got = not (Bdd.is_zero (Bdd.band f g))

let prop_intersects_is_band =
  QCheck.Test.make ~name:"intersects = band is satisfiable, no node built" ~count:200
    (QCheck.pair arb_expr arb_expr) (fun (a, b) ->
      intersects_agrees (bdd_of_expr a) (bdd_of_expr b))

let test_intersects_long_search () =
  (* x24 ∧ parity(x0..x23) has 2^23 paths to one above x24: a search
     against ¬x24 must memoise its disjoint pairs to finish at once *)
  let parity = List.fold_left (fun acc i -> Bdd.bxor acc (Bdd.var i)) Bdd.zero (List.init 24 Fun.id) in
  let f = Bdd.band parity (Bdd.var 24) in
  let cases =
    [
      ("disjoint literal", Bdd.nvar 24);
      ("disjoint function", Bdd.band (Bdd.bnot parity) (Bdd.var 24));
      ("meets literal", Bdd.var 24);
      ("meets cube", Bdd.cube_of_literals [ (0, true); (23, false); (24, true) ]);
      ("itself", f);
      ("one", Bdd.one);
      ("zero", Bdd.zero);
    ]
  in
  List.iter (fun (name, g) -> check name (intersects_agrees f g && intersects_agrees g f)) cases

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "identities" `Quick test_simple_identities;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "quantify" `Quick test_quantify;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "sat_count" `Quick test_sat_count;
          Alcotest.test_case "cube_of_literals" `Quick test_cube_of_literals;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "iter_sat" `Quick test_iter_sat;
          Alcotest.test_case "engine stats" `Quick test_engine_stats;
          Alcotest.test_case "parity size" `Quick test_parity_size;
          Alcotest.test_case "big conjunction" `Quick test_big_conjunction;
          Alcotest.test_case "intersects long search" `Quick test_intersects_long_search;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_shannon_expansion;
            prop_quantifier_duality;
            prop_exists_brute_force;
            prop_support_is_exact;
            prop_eval_agrees;
            prop_de_morgan;
            prop_sat_count_matches_enumeration;
            prop_implies_is_subset;
            prop_xor_via_or_and;
            prop_intersects_is_band;
          ] );
    ]
