(* Tests for multi-output prime generation and shared-product covering:
   primality against a brute-force oracle, sharing really paying off
   versus independent per-output minimisation, and the PLA round trip. *)

module Cube = Logic.Cube
module Cover = Logic.Cover
module Multi = Logic.Multi
module Pla = Logic.Pla

let check = Alcotest.(check bool)

let show_primes ps =
  String.concat "; " (List.map (Fmt.to_to_string Multi.pp_prime) ps)

(* the textbook sharing example: f0 = ab, f1 = ab + c — the product ab can
   feed both outputs *)
let sharing_pla =
  Pla.parse ".i 3\n.o 2\n.type fd\n11- 11\n--1 01\n.e\n"

let test_sharing_primes () =
  let ps = Multi.primes sharing_pla in
  check "ab tagged with both outputs" true
    (List.exists
       (fun p ->
         Cube.to_string p.Multi.cube = "11-" && p.Multi.outputs = [ 0; 1 ])
       ps);
  List.iter (fun p -> check "implicant" true (Multi.is_implicant sharing_pla p)) ps

let test_sharing_solution () =
  let r, bridge = Scg.solve_pla_multi sharing_pla in
  (* two products suffice: ab (both outputs) and c (output 1) *)
  Alcotest.(check int) "two shared products" 2 r.Scg.cost;
  check "proven" true r.Scg.proven_optimal;
  check "verified" true (Covering.From_logic.verify_multi bridge r.Scg.solution)

let test_sharing_beats_independent () =
  (* an instance where per-output minimisation needs strictly more rows:
     f0 = ab+cd, f1 = ab+c'd' — ab shared *)
  let pla = Pla.parse ".i 4\n.o 2\n.type fd\n11-- 11\n--11 10\n--00 01\n.e\n" in
  let shared, _ = Scg.solve_pla_multi pla in
  let independent =
    List.fold_left
      (fun acc k ->
        let r, _ = Scg.solve_pla pla ~output:k in
        acc + r.Scg.cost)
      0 [ 0; 1 ]
  in
  Alcotest.(check int) "shared: 3 products" 3 shared.Scg.cost;
  Alcotest.(check int) "independent: 4 products" 4 independent

let random_pla seed =
  let rng = Random.State.make [| seed |] in
  let ni = 3 + Random.State.int rng 2 in
  let no = 2 + Random.State.int rng 2 in
  let n_rows = 2 + Random.State.int rng 5 in
  let row _ =
    let input =
      String.init ni (fun _ ->
          match Random.State.int rng 3 with
          | 0 -> '0'
          | 1 -> '1'
          | _ -> '-')
    in
    let output =
      String.init no (fun _ ->
          match Random.State.int rng 4 with
          | 0 | 1 -> '1'
          | 2 -> '0'
          | _ -> '-')
    in
    input ^ " " ^ output
  in
  let body = String.concat "\n" (List.init n_rows row) in
  Pla.parse (Printf.sprintf ".i %d\n.o %d\n.type fd\n%s\n.e\n" ni no body)

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let prop_primes_match_brute_force =
  QCheck.Test.make ~name:"multi-output primes = brute force" ~count:60 arb_seed
    (fun seed ->
      let pla = random_pla seed in
      let fast = Multi.primes pla in
      let brute = Multi.brute_force_primes pla in
      if show_primes fast <> show_primes brute then
        QCheck.Test.fail_reportf "fast: %s@.brute: %s" (show_primes fast)
          (show_primes brute)
      else true)

(* A random multi-output PLA at the benchmark's two-level sizes: 10 or
   11 inputs, 4 or 5 outputs, 28 to 30 terms, drawn like its [multi]
   inputs (each input literal 0, 1 or - alike; each output 1 half the
   time, else 0 or -). *)
let bench_sized_pla seed =
  let rng = Random.State.make [| seed |] in
  let ni = 10 + Random.State.int rng 2 and no = 4 + Random.State.int rng 2 in
  let plane n pick = String.init n (fun _ -> pick (Random.State.int rng 12)) in
  let row _ =
    plane ni (fun r -> if r < 4 then '0' else if r < 8 then '1' else '-')
    ^ " "
    ^ plane no (fun r -> if r < 6 then '1' else if r < 9 then '0' else '-')
  in
  let body = String.concat "\n" (List.init (28 + Random.State.int rng 3) row) in
  Pla.parse (Printf.sprintf ".i %d\n.o %d\n.type fd\n%s\n.e\n" ni no body)

let prop_primes_match_oracle =
  QCheck.Test.make ~name:"multi-output primes = per-subset oracle, bench sizes"
    ~count:12 arb_seed (fun seed ->
      let pla = bench_sized_pla seed in
      let fast = Multi.primes pla in
      let oracle = Test_support.Multi_oracle.primes pla in
      if List.equal Multi.equal_prime fast oracle then true
      else
        QCheck.Test.fail_reportf "%d primes, oracle %d" (List.length fast)
          (List.length oracle))

let prop_solution_covers_all_rows =
  QCheck.Test.make ~name:"multi solution covers every (minterm, output)" ~count:30
    arb_seed (fun seed ->
      let pla = random_pla seed in
      match Covering.From_logic.build_multi pla with
      | exception Invalid_argument _ -> true (* empty ON everywhere *)
      | bridge ->
        let r = Scg.solve bridge.Covering.From_logic.mmatrix in
        Covering.From_logic.verify_multi bridge r.Scg.solution)

let prop_shared_never_worse =
  QCheck.Test.make ~name:"shared cost <= sum of per-output optima" ~count:25 arb_seed
    (fun seed ->
      let pla = random_pla seed in
      match Covering.From_logic.build_multi pla with
      | exception Invalid_argument _ -> true
      | bridge ->
        let shared =
          (Covering.Exact.solve bridge.Covering.From_logic.mmatrix).Covering.Exact.cost
        in
        let independent =
          List.fold_left
            (fun acc k ->
              let on = Pla.onset pla k and dc = Pla.dcset pla k in
              if Cover.is_empty on then acc
              else begin
                let b = Covering.From_logic.build ~on ~dc () in
                if Covering.Matrix.n_rows b.Covering.From_logic.matrix = 0 then acc
                else acc + (Covering.Exact.solve b.Covering.From_logic.matrix).Covering.Exact.cost
              end)
            0
            (List.init pla.Pla.no Fun.id)
        in
        shared <= independent)

let test_pla_round_trip () =
  let r, bridge = Scg.solve_pla_multi sharing_pla in
  let out = Covering.From_logic.pla_of_multi_solution sharing_pla bridge r.Scg.solution in
  Alcotest.(check int) "row count = cost" r.Scg.cost (List.length out.Pla.rows);
  (* re-parse and check each output's care behaviour is preserved *)
  let out = Pla.parse (Pla.to_string out) in
  List.iter
    (fun k ->
      let spec_on = Pla.onset sharing_pla k and spec_dc = Pla.dcset sharing_pla k in
      let got = Pla.onset out k in
      let inside =
        Cover.covers (Cover.union spec_on spec_dc) got
      in
      let covers = Cover.covers (Cover.union got spec_dc) spec_on in
      check (Printf.sprintf "output %d preserved" k) true (inside && covers))
    [ 0; 1 ]

let test_multi_guards () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  (* 17 outputs exceed the subset-enumeration bound *)
  let wide =
    let out17 = String.make 17 '1' in
    Pla.parse (Printf.sprintf ".i 2\n.o 17\n.type fd\n11 %s\n.e\n" out17)
  in
  check "too many outputs" true (raises (fun () -> ignore (Multi.primes wide)));
  (* empty ON everywhere *)
  let empty = Pla.parse ".i 2\n.o 1\n.type fd\n11 0\n.e\n" in
  check "no rows" true
    (raises (fun () -> ignore (Covering.From_logic.build_multi empty)))

let test_realised_cost_merges () =
  let a = { Multi.cube = Cube.of_string "11-"; outputs = [ 0 ] } in
  let b = { Multi.cube = Cube.of_string "11-"; outputs = [ 1 ] } in
  let c = { Multi.cube = Cube.of_string "--1"; outputs = [ 1 ] } in
  Alcotest.(check int) "shared cube counted once" 2 (Multi.realised_cost [ a; b; c ])

let () =
  Alcotest.run "multi"
    [
      ( "primes",
        [
          Alcotest.test_case "sharing primes" `Quick test_sharing_primes;
          QCheck_alcotest.to_alcotest prop_primes_match_brute_force;
          QCheck_alcotest.to_alcotest prop_primes_match_oracle;
        ] );
      ( "covering",
        [
          Alcotest.test_case "sharing solution" `Quick test_sharing_solution;
          Alcotest.test_case "beats independent" `Quick test_sharing_beats_independent;
          QCheck_alcotest.to_alcotest prop_solution_covers_all_rows;
          QCheck_alcotest.to_alcotest prop_shared_never_worse;
          Alcotest.test_case "pla round trip" `Quick test_pla_round_trip;
          Alcotest.test_case "realised cost" `Quick test_realised_cost_merges;
          Alcotest.test_case "guards" `Quick test_multi_guards;
        ] );
    ]
