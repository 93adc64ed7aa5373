(* Tests for the two-level logic layer: bit vectors, cubes, covers, PLA
   parsing and — critically — implicit prime generation against two
   independent oracles (Quine-McCluskey tabulation and 3^n brute force). *)

open Logic

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bitvec                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basic () =
  let v = Bitvec.create 100 in
  check "fresh is zero" true (Bitvec.is_zero v);
  Bitvec.set v 63 true;
  Bitvec.set v 64 true;
  Bitvec.set v 99 true;
  check "get across word boundary" true (Bitvec.get v 63 && Bitvec.get v 64);
  Alcotest.(check int) "popcount" 3 (Bitvec.popcount v);
  Bitvec.set v 64 false;
  Alcotest.(check int) "popcount after clear" 2 (Bitvec.popcount v);
  let ones = Bitvec.fold_ones v ~init:[] ~f:(fun acc i -> i :: acc) in
  Alcotest.(check (list int)) "iter_ones order" [ 63; 99 ] (List.rev ones)

let test_bitvec_logic () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Alcotest.(check string) "and" "1000" (Bitvec.to_string (Bitvec.logand a b));
  Alcotest.(check string) "or" "1110" (Bitvec.to_string (Bitvec.logor a b));
  Alcotest.(check string) "xor" "0110" (Bitvec.to_string (Bitvec.logxor a b));
  Alcotest.(check string) "not" "0011" (Bitvec.to_string (Bitvec.lognot a));
  Alcotest.(check string) "andnot" "0100" (Bitvec.to_string (Bitvec.andnot a b));
  check "subset" true (Bitvec.subset (Bitvec.of_string "1000") a);
  check "not subset" false (Bitvec.subset a b);
  check "full after not of zero" true (Bitvec.is_full (Bitvec.lognot (Bitvec.create 130)))

let test_bitvec_full () =
  let v = Bitvec.create_full 65 in
  check "is_full" true (Bitvec.is_full v);
  Alcotest.(check int) "popcount full" 65 (Bitvec.popcount v);
  Bitvec.set v 64 false;
  check "not full" false (Bitvec.is_full v)

(* ------------------------------------------------------------------ *)
(* Cube                                                               *)
(* ------------------------------------------------------------------ *)

let test_cube_string () =
  let c = Cube.of_string "1-0" in
  Alcotest.(check string) "round trip" "1-0" (Cube.to_string c);
  check "phase one" true (Cube.phase c 0 = Cube.One);
  check "phase dash" true (Cube.phase c 1 = Cube.Dash);
  check "phase zero" true (Cube.phase c 2 = Cube.Zero);
  Alcotest.(check int) "literal count" 2 (Cube.literal_count c);
  Alcotest.(check int) "free count" 1 (Cube.free_count c)

let test_cube_cover_minterm () =
  let c = Cube.of_string "1-0" in
  (* minterm bit i = value of variable i; c requires x0=1, x2=0 *)
  check "covers 001" true (Cube.covers_minterm c 0b001);
  check "covers 011" true (Cube.covers_minterm c 0b011);
  check "not covers 000" false (Cube.covers_minterm c 0b000);
  check "not covers 101" false (Cube.covers_minterm c 0b101)

let test_cube_inter () =
  let a = Cube.of_string "1--" and b = Cube.of_string "-0-" in
  (match Cube.inter a b with
  | Some c -> Alcotest.(check string) "inter" "10-" (Cube.to_string c)
  | None -> Alcotest.fail "expected intersection");
  let d = Cube.of_string "0--" in
  check "disjoint" true (Cube.inter a d = None);
  Alcotest.(check int) "distance 1" 1 (Cube.distance a d)

let test_cube_subsume_consensus () =
  let big = Cube.of_string "1--" and small = Cube.of_string "10-" in
  check "subsumes" true (Cube.subsumes big small);
  check "not subsumes" false (Cube.subsumes small big);
  let a = Cube.of_string "11-" and b = Cube.of_string "01-" in
  (match Cube.consensus a b with
  | Some c -> Alcotest.(check string) "consensus" "-1-" (Cube.to_string c)
  | None -> Alcotest.fail "expected consensus");
  check "no consensus at distance 2" true
    (Cube.consensus (Cube.of_string "11-") (Cube.of_string "00-") = None);
  Alcotest.(check string) "supercube" "1--"
    (Cube.to_string (Cube.supercube (Cube.of_string "11-") (Cube.of_string "10-")))

let test_cube_minterms () =
  let c = Cube.of_string "1-0" in
  let acc = ref [] in
  Cube.iter_minterms c (fun m -> acc := m :: !acc);
  Alcotest.(check (list int)) "minterms" [ 0b001; 0b011 ] (List.sort compare !acc)

(* the per-variable reading of a cube, independent of its masks *)
let covers_by_phase c m =
  List.for_all
    (fun i ->
      match Cube.phase c i with
      | Cube.Dash -> true
      | Cube.One -> m land (1 lsl i) <> 0
      | Cube.Zero -> m land (1 lsl i) = 0)
    (List.init (Cube.nvars c) Fun.id)

let random_cube rng n =
  Cube.of_string
    (String.init n (fun _ ->
         match Random.State.int rng 3 with 0 -> '0' | 1 -> '1' | _ -> '-'))

let test_cube_masks () =
  let rng = Random.State.make [| 14 |] in
  for n = 0 to 10 do
    for _ = 1 to 20 do
      let c = random_cube rng n in
      let care, value = Cube.masks c in
      let inside = ref [] in
      for m = (1 lsl n) - 1 downto 0 do
        let want = covers_by_phase c m in
        Alcotest.(check bool) "mask test" want (m land care = value);
        Alcotest.(check bool) "covers_minterm" want (Cube.covers_minterm c m);
        if want then inside := m :: !inside
      done;
      let seen = ref [] in
      Cube.iter_minterms c (fun m -> seen := m :: !seen);
      Alcotest.(check (list int)) "iter_minterms ascending" !inside (List.rev !seen)
    done
  done

let test_cube_bdd () =
  let c = Cube.of_string "1-0" in
  let f = Cube.to_bdd c in
  Alcotest.(check (float 1e-9)) "bdd count" 2. (Bdd.sat_count ~nvars:3 f)

let test_cube_literal_set () =
  let c = Cube.of_string "1-0" in
  (* positive literal of var 0 is zdd var 0; negative literal of var 2 is 5 *)
  Alcotest.(check (list int)) "to_literal_set" [ 0; 5 ] (Cube.to_literal_set c);
  check "round trip" true (Cube.equal c (Cube.of_literal_set 3 [ 0; 5 ]))

(* ------------------------------------------------------------------ *)
(* Cover                                                              *)
(* ------------------------------------------------------------------ *)

let cover_of_strings n strs = Cover.of_cubes n (List.map Cube.of_string strs)

let test_cover_eval () =
  let f = cover_of_strings 3 [ "11-"; "0-0" ] in
  check "covers 110" true (Cover.eval_minterm f 0b011);
  (* 0b011 = x0=1,x1=1,x2=0 *)
  check "covers 000" true (Cover.eval_minterm f 0b000);
  check "not 101" false (Cover.eval_minterm f 0b101);
  Alcotest.(check int) "size" 2 (Cover.size f);
  Alcotest.(check int) "literal cost" 4 (Cover.literal_cost f)

let test_cover_minterms () =
  let rng = Random.State.make [| 15 |] in
  let in_cover f m = List.exists (fun c -> covers_by_phase c m) (Cover.cubes f) in
  for n = 0 to 10 do
    for _ = 1 to 10 do
      let cover k = Cover.of_cubes n (List.init k (fun _ -> random_cube rng n)) in
      let f = cover (Random.State.int rng 5) and g = cover (Random.State.int rng 3) in
      let scan keep = List.filter keep (List.init (1 lsl n) Fun.id) in
      Alcotest.(check (list int)) "minterms" (scan (in_cover f)) (Cover.minterms f);
      Alcotest.(check (list int)) "minterms ~except"
        (scan (fun m -> in_cover f m && not (in_cover g m)))
        (Cover.minterms ~except:g f)
    done
  done;
  let u = Cover.of_cubes 3 [ Cube.universe 3; Cube.of_string "1-0"; Cube.universe 3 ] in
  Alcotest.(check (list int)) "universal and repeated cubes" (List.init 8 Fun.id)
    (Cover.minterms u);
  Alcotest.(check (list int)) "everything excepted" [] (Cover.minterms ~except:u u);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "arity mismatch" true (raises (fun () -> Cover.minterms ~except:(Cover.empty 2) u));
  check "beyond 24 variables" true (raises (fun () -> Cover.minterms (Cover.universe 25)))

let is_taut strs = Cover.is_tautology (cover_of_strings 2 strs)

let test_cover_tautology () =
  check "x + x' tautology" true (is_taut [ "1-"; "0-" ]);
  check "x + x'y + x'y'" true (is_taut [ "1-"; "01"; "00" ]);
  check "x + y not tautology" false (is_taut [ "1-"; "-1" ]);
  check "empty not tautology" false (Cover.is_tautology (Cover.empty 2));
  check "universe tautology" true (Cover.is_tautology (Cover.universe 2))

let test_cover_complement () =
  let f = cover_of_strings 3 [ "11-"; "0-0" ] in
  let fc = Cover.complement f in
  let fb = Cover.to_bdd f in
  check "complement semantics" true (Bdd.equal (Cover.to_bdd fc) (Bdd.bnot fb));
  (* complement of empty / universe *)
  check "comp empty" true (Cover.is_tautology (Cover.complement (Cover.empty 3)));
  check "comp universe" true (Cover.is_empty (Cover.complement (Cover.universe 3)))

let test_cover_covers_cube () =
  let f = cover_of_strings 3 [ "1--"; "-1-" ] in
  check "covers 11-" true (Cover.covers_cube f (Cube.of_string "11-"));
  check "covers 1-0" true (Cover.covers_cube f (Cube.of_string "1-0"));
  check "not covers ---" false (Cover.covers_cube f (Cube.of_string "---"));
  check "not covers 00-" false (Cover.covers_cube f (Cube.of_string "00-"))

let test_cover_scc () =
  let f = cover_of_strings 3 [ "1--"; "11-"; "11-"; "-00" ] in
  let g = Cover.single_cube_containment f in
  Alcotest.(check int) "scc size" 2 (Cover.size g)

let test_cover_sharp () =
  let f = cover_of_strings 3 [ "---" ] in
  let s = Cover.sharp f (Cube.of_string "11-") in
  let expect = Bdd.bnot (Cube.to_bdd (Cube.of_string "11-")) in
  check "sharp semantics" true (Bdd.equal (Cover.to_bdd s) expect)

(* ------------------------------------------------------------------ *)
(* PLA                                                                *)
(* ------------------------------------------------------------------ *)

let sample_pla =
  ".i 3\n.o 2\n.type fd\n# a comment\n.p 3\n11- 10\n0-0 11\n--1 -1\n.e\n"

let test_pla_parse () =
  let pla = Pla.parse sample_pla in
  Alcotest.(check int) "ni" 3 pla.Pla.ni;
  Alcotest.(check int) "no" 2 pla.Pla.no;
  Alcotest.(check int) "rows" 3 (List.length pla.Pla.rows);
  let on0 = Pla.onset pla 0 in
  Alcotest.(check int) "onset f0 size" 2 (Cover.size on0);
  let dc0 = Pla.dcset pla 0 in
  Alcotest.(check int) "dcset f0 size" 1 (Cover.size dc0);
  Alcotest.(check int) "dcset f1 empty" 0 (Cover.size (Pla.dcset pla 1))

let test_pla_round_trip () =
  let pla = Pla.parse sample_pla in
  let pla2 = Pla.parse (Pla.to_string pla) in
  check "onset preserved" true
    (Cover.equal_semantics (Pla.onset pla 0) (Pla.onset pla2 0)
    && Cover.equal_semantics (Pla.onset pla 1) (Pla.onset pla2 1))

let test_pla_offset_fd () =
  let pla = Pla.parse ".i 2\n.o 1\n.type fd\n11 1\n00 -\n.e\n" in
  let off = Pla.offset pla 0 in
  (* OFF = complement of ON ∪ DC = {01, 10} *)
  check "offset semantics" true
    (Bdd.equal (Cover.to_bdd off)
       (Bdd.bxor (Bdd.var 0) (Bdd.var 1)))

let test_pla_errors () =
  check "bad width raises" true
    (try
       ignore (Pla.parse ".i 3\n.o 1\n11 1\n.e\n");
       false
     with Parse_error.Parse_error _ -> true);
  check "missing .i raises" true
    (try
       ignore (Pla.parse ".o 1\n1 1\n.e\n");
       false
     with Parse_error.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Primes                                                             *)
(* ------------------------------------------------------------------ *)

let sort_cubes cs = List.sort Cube.compare cs

let random_cover rng n max_cubes =
  let n_cubes = 1 + Random.State.int rng max_cubes in
  let cube _ =
    Cube.of_string
      (String.init n (fun _ ->
           match Random.State.int rng 3 with
           | 0 -> '0'
           | 1 -> '1'
           | _ -> '-'))
  in
  Cover.of_cubes n (List.init n_cubes cube)

let test_primes_simple () =
  (* f = x0 x1 + x0' : primes are x0' , x1 *)
  let on = cover_of_strings 2 [ "11"; "0-" ] in
  let dc = Cover.empty 2 in
  let primes = Primes.to_cubes ~nvars:2 (Primes.of_covers ~on ~dc) in
  Alcotest.(check (list string))
    "primes of x0x1 + x0'"
    [ "-1"; "0-" ]
    (List.map Cube.to_string (sort_cubes primes))

let test_primes_tautology () =
  let on = cover_of_strings 2 [ "1-"; "0-" ] in
  let z = Primes.of_covers ~on ~dc:(Cover.empty 2) in
  check "tautology => base" true (Zdd.is_base z)

let test_primes_against_oracles () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 40 do
    let n = 3 + Random.State.int rng 3 in
    let on = random_cover rng n 5 in
    let dc = random_cover rng n 2 in
    (* make DC disjoint from ON to keep the spec canonical (not required,
       but mirrors well-formed PLAs) *)
    let implicit =
      sort_cubes (Primes.to_cubes ~nvars:n (Primes.of_covers ~on ~dc))
    in
    let qm = sort_cubes (Test_support.Qm.primes ~on ~dc) in
    let brute = sort_cubes (Test_support.Qm.brute_force_primes ~on ~dc) in
    let show cs = String.concat " " (List.map Cube.to_string cs) in
    Alcotest.(check string) "implicit = qm" (show qm) (show implicit);
    Alcotest.(check string) "implicit = brute" (show brute) (show implicit)
  done

let test_essential_primes () =
  (* f = x0x1 + x0'x1' over 2 vars: both primes essential *)
  let on = cover_of_strings 2 [ "11"; "00" ] in
  let dc = Cover.empty 2 in
  let primes = Primes.to_cubes ~nvars:2 (Primes.of_covers ~on ~dc) in
  let ess = Primes.essential ~on ~dc ~primes in
  Alcotest.(check int) "both essential" 2 (List.length ess);
  (* f = x0 + x1 with dc covering the overlap: both still essential *)
  let on2 = cover_of_strings 2 [ "1-"; "-1" ] in
  let primes2 = Primes.to_cubes ~nvars:2 (Primes.of_covers ~on:on2 ~dc) in
  let ess2 = Primes.essential ~on:on2 ~dc ~primes:primes2 in
  Alcotest.(check int) "two essential" 2 (List.length ess2)

let prop_primes_cover_onset =
  QCheck.Test.make ~name:"primes cover the onset" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 10_000)) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 2 in
      let on = random_cover rng n 4 in
      let primes = Primes.to_cubes ~nvars:n (Primes.of_covers ~on ~dc:(Cover.empty n)) in
      let pc = Cover.of_cubes n primes in
      Cover.covers pc on && Cover.covers (Cover.union on (Cover.empty n)) pc)

(* ------------------------------------------------------------------ *)
(* Cover recursion properties                                         *)
(* ------------------------------------------------------------------ *)

let arb_seed_small = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let prop_cover_shannon =
  QCheck.Test.make ~name:"cover cofactor satisfies shannon expansion" ~count:80
    arb_seed_small (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 2 in
      let f = random_cover rng n 5 in
      List.for_all
        (fun v ->
          let pos = Cube.of_literals n [ (v, true) ] in
          let neg = Cube.of_literals n [ (v, false) ] in
          let f1 = Cover.cofactor f ~by:pos and f0 = Cover.cofactor f ~by:neg in
          let xb = Bdd.var v in
          Bdd.equal (Cover.to_bdd f)
            (Bdd.bor
               (Bdd.band xb (Cover.to_bdd f1))
               (Bdd.band (Bdd.bnot xb) (Cover.to_bdd f0))))
        [ 0; n - 1 ])

let prop_cover_sharp_semantics =
  QCheck.Test.make ~name:"sharp computes f and-not cube" ~count:80 arb_seed_small
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 2 in
      let f = random_cover rng n 4 in
      let c =
        Cube.of_string
          (String.init n (fun _ ->
               match Random.State.int rng 3 with
               | 0 -> '0'
               | 1 -> '1'
               | _ -> '-'))
      in
      let s = Cover.sharp f c in
      Bdd.equal (Cover.to_bdd s) (Bdd.bdiff (Cover.to_bdd f) (Cube.to_bdd c)))

let prop_cover_tautology_agrees_with_bdd =
  QCheck.Test.make ~name:"tautology check agrees with BDD" ~count:100 arb_seed_small
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 3 in
      let f = random_cover rng n 6 in
      Cover.is_tautology f = Bdd.is_one (Cover.to_bdd f))

let prop_cover_containment_agrees_with_bdd =
  QCheck.Test.make ~name:"covers agrees with BDD implication" ~count:100 arb_seed_small
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 2 in
      let f = random_cover rng n 4 and g = random_cover rng n 4 in
      Cover.covers f g = Bdd.implies (Cover.to_bdd g) (Cover.to_bdd f))

let test_pla_fr_type () =
  let pla = Pla.parse ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n" in
  let off = Pla.offset pla 0 in
  Alcotest.(check int) "explicit offset" 1 (Cover.size off);
  Alcotest.(check int) "no dc in fr" 0 (Cover.size (Pla.dcset pla 0))

let test_pla_file_io () =
  let path = Filename.temp_file "ucp" ".pla" in
  let oc = open_out path in
  output_string oc sample_pla;
  close_out oc;
  let pla = Pla.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "ni from file" 3 pla.Pla.ni

let () =
  Alcotest.run "logic"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basic" `Quick test_bitvec_basic;
          Alcotest.test_case "logic" `Quick test_bitvec_logic;
          Alcotest.test_case "full" `Quick test_bitvec_full;
        ] );
      ( "cube",
        [
          Alcotest.test_case "string" `Quick test_cube_string;
          Alcotest.test_case "covers_minterm" `Quick test_cube_cover_minterm;
          Alcotest.test_case "inter" `Quick test_cube_inter;
          Alcotest.test_case "subsume/consensus" `Quick test_cube_subsume_consensus;
          Alcotest.test_case "minterms" `Quick test_cube_minterms;
          Alcotest.test_case "masks" `Quick test_cube_masks;
          Alcotest.test_case "to_bdd" `Quick test_cube_bdd;
          Alcotest.test_case "literal sets" `Quick test_cube_literal_set;
        ] );
      ( "cover",
        [
          Alcotest.test_case "eval" `Quick test_cover_eval;
          Alcotest.test_case "minterms" `Quick test_cover_minterms;
          Alcotest.test_case "tautology" `Quick test_cover_tautology;
          Alcotest.test_case "complement" `Quick test_cover_complement;
          Alcotest.test_case "covers_cube" `Quick test_cover_covers_cube;
          Alcotest.test_case "scc" `Quick test_cover_scc;
          Alcotest.test_case "sharp" `Quick test_cover_sharp;
          QCheck_alcotest.to_alcotest prop_cover_shannon;
          QCheck_alcotest.to_alcotest prop_cover_sharp_semantics;
          QCheck_alcotest.to_alcotest prop_cover_tautology_agrees_with_bdd;
          QCheck_alcotest.to_alcotest prop_cover_containment_agrees_with_bdd;
        ] );
      ( "pla",
        [
          Alcotest.test_case "parse" `Quick test_pla_parse;
          Alcotest.test_case "round trip" `Quick test_pla_round_trip;
          Alcotest.test_case "offset fd" `Quick test_pla_offset_fd;
          Alcotest.test_case "fr type" `Quick test_pla_fr_type;
          Alcotest.test_case "file io" `Quick test_pla_file_io;
          Alcotest.test_case "errors" `Quick test_pla_errors;
        ] );
      ( "primes",
        [
          Alcotest.test_case "simple" `Quick test_primes_simple;
          Alcotest.test_case "tautology" `Quick test_primes_tautology;
          Alcotest.test_case "vs oracles" `Slow test_primes_against_oracles;
          Alcotest.test_case "essential" `Quick test_essential_primes;
          QCheck_alcotest.to_alcotest prop_primes_cover_onset;
        ] );
    ]
