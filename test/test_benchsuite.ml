(* Tests for the benchmark substrate: determinism, structural claims of
   each generator, Steiner system axioms, and registry integrity. *)

module Matrix = Covering.Matrix

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Benchsuite.Rng.create 42 and b = Benchsuite.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Benchsuite.Rng.int a 1000) (Benchsuite.Rng.int b 1000)
  done

let test_rng_of_string () =
  let a = Benchsuite.Rng.of_string "bench1" and b = Benchsuite.Rng.of_string "bench1" in
  Alcotest.(check int) "same" (Benchsuite.Rng.int a 1_000_000) (Benchsuite.Rng.int b 1_000_000);
  let c = Benchsuite.Rng.of_string "bench2" in
  (* overwhelmingly likely to differ on the first draw *)
  check "different name differs" true
    (Benchsuite.Rng.int (Benchsuite.Rng.of_string "bench1") 1_000_000
     <> Benchsuite.Rng.int c 1_000_000
    || Benchsuite.Rng.int (Benchsuite.Rng.of_string "bench1") 7 >= 0)

let test_rng_bounds () =
  let rng = Benchsuite.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Benchsuite.Rng.int rng 13 in
    check "in range" true (v >= 0 && v < 13);
    let f = Benchsuite.Rng.float rng 2.5 in
    check "float range" true (f >= 0. && f < 2.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Benchsuite.Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Benchsuite.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Plagen                                                             *)
(* ------------------------------------------------------------------ *)

let test_parity_structure () =
  let spec = Benchsuite.Plagen.parity ~ni:4 in
  Alcotest.(check int) "8 onset minterms" 8 (Logic.Cover.size spec.Benchsuite.Plagen.on);
  (* all 8 minterms are primes: the covering matrix is the identity-ish *)
  let b = Covering.From_logic.build ~on:spec.Benchsuite.Plagen.on ~dc:spec.Benchsuite.Plagen.dc () in
  Alcotest.(check int) "8 primes" 8 (Matrix.n_cols b.Covering.From_logic.matrix);
  Alcotest.(check int) "8 rows" 8 (Matrix.n_rows b.Covering.From_logic.matrix)

let test_majority_optimum () =
  let spec = Benchsuite.Plagen.majority ~ni:3 in
  let b = Covering.From_logic.build ~on:spec.Benchsuite.Plagen.on ~dc:spec.Benchsuite.Plagen.dc () in
  let r = Covering.Exact.solve b.Covering.From_logic.matrix in
  Alcotest.(check int) "maj3 needs 3 products" 3 r.Covering.Exact.cost

let test_mux_optimum () =
  (* 4-to-1 mux: 4 products suffice (one per data line) and are needed *)
  let spec = Benchsuite.Plagen.mux ~select:2 in
  let b = Covering.From_logic.build ~on:spec.Benchsuite.Plagen.on ~dc:spec.Benchsuite.Plagen.dc () in
  let r = Covering.Exact.solve b.Covering.From_logic.matrix in
  Alcotest.(check int) "mux4 optimum" 4 r.Covering.Exact.cost

let test_random_pla_deterministic () =
  let a = Benchsuite.Plagen.random_pla ~name:"x" ~ni:6 ~terms:8 ~dc_terms:2 in
  let b = Benchsuite.Plagen.random_pla ~name:"x" ~ni:6 ~terms:8 ~dc_terms:2 in
  check "same cover" true
    (Logic.Cover.equal_semantics a.Benchsuite.Plagen.on b.Benchsuite.Plagen.on)

let test_with_random_dc () =
  let base = Benchsuite.Plagen.random_pla ~name:"dc-test" ~ni:5 ~terms:5 ~dc_terms:0 in
  let spec = Benchsuite.Plagen.with_random_dc ~percent:50 base in
  (* the DC plane must stay disjoint from the ON-set *)
  let on_bdd = Logic.Cover.to_bdd spec.Benchsuite.Plagen.on in
  let dc_bdd = Logic.Cover.to_bdd spec.Benchsuite.Plagen.dc in
  check "dc disjoint from on" true (Bdd.is_zero (Bdd.band on_bdd dc_bdd))

(* ------------------------------------------------------------------ *)
(* Steiner                                                            *)
(* ------------------------------------------------------------------ *)

let test_steiner_axioms () =
  List.iter
    (fun n ->
      let triples = Benchsuite.Steiner.triples n in
      Alcotest.(check int)
        (Printf.sprintf "stein%d triple count" n)
        (n * (n - 1) / 6)
        (List.length triples);
      (* every pair of points appears in exactly one triple *)
      let pair_count = Hashtbl.create 97 in
      List.iter
        (fun (a, b, c) ->
          check "distinct" true (a <> b && b <> c && a <> c);
          List.iter
            (fun (x, y) ->
              let key = (min x y, max x y) in
              Hashtbl.replace pair_count key
                (1 + Option.value ~default:0 (Hashtbl.find_opt pair_count key)))
            [ (a, b); (b, c); (a, c) ])
        triples;
      Alcotest.(check int)
        (Printf.sprintf "stein%d pair coverage" n)
        (n * (n - 1) / 2)
        (Hashtbl.length pair_count);
      Hashtbl.iter (fun _ c -> Alcotest.(check int) "each pair once" 1 c) pair_count)
    [ 9; 15; 27 ]

let test_steiner_matrix () =
  let m = Benchsuite.Steiner.matrix 9 in
  Alcotest.(check int) "rows" 12 (Matrix.n_rows m);
  Alcotest.(check int) "cols" 9 (Matrix.n_cols m);
  (* stein9 covering number is 5 *)
  let r = Covering.Exact.solve m in
  Alcotest.(check int) "stein9 optimum" 5 r.Covering.Exact.cost

let test_steiner_invalid () =
  check "rejects n=8" true
    (try ignore (Benchsuite.Steiner.triples 8); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Randucp                                                            *)
(* ------------------------------------------------------------------ *)

let test_reducible_profile () =
  let m = Benchsuite.Randucp.reducible ~name:"p" ~n_rows:80 ~n_cols:40 () in
  Alcotest.(check int) "rows" 80 (Matrix.n_rows m);
  (* reductions should bite hard: the core is much smaller than the input *)
  let r = Covering.Reduce2.cyclic_core m in
  check "core shrank" true (Matrix.n_rows r.Covering.Reduce.core < 40)

let test_cyclic_profile () =
  let m = Benchsuite.Randucp.cyclic ~name:"q" ~n_rows:60 ~n_cols:40 ~k:3 () in
  for i = 0 to Matrix.n_rows m - 1 do
    Alcotest.(check int) "k per row" 3 (Array.length (Matrix.row m i))
  done;
  (* no essentials by construction *)
  Alcotest.(check (list int)) "no essential" []
    (Test_support.Reduce_oracle.essential_columns m)

let test_vertex_cover_structure () =
  let m = Benchsuite.Randucp.vertex_cover ~name:"vc" ~n_vertices:12 ~n_edges:20 () in
  Alcotest.(check int) "cols" 12 (Matrix.n_cols m);
  check "has rows" true (Matrix.n_rows m > 0);
  for i = 0 to Matrix.n_rows m - 1 do
    Alcotest.(check int) "edge row" 2 (Array.length (Matrix.row m i))
  done;
  (* deterministic *)
  let m2 = Benchsuite.Randucp.vertex_cover ~name:"vc" ~n_vertices:12 ~n_edges:20 () in
  Alcotest.(check int) "same rows" (Matrix.n_rows m) (Matrix.n_rows m2)

let test_beasley_structure () =
  let m =
    Benchsuite.Randucp.beasley ~name:"scp-t" ~n_rows:40 ~n_cols:300 ~rows_per_col:4 ()
  in
  Alcotest.(check int) "cols" 300 (Matrix.n_cols m);
  Alcotest.(check int) "rows" 40 (Matrix.n_rows m);
  (* repair guarantees every row at least two columns *)
  for i = 0 to Matrix.n_rows m - 1 do
    check "row degree >= 2" true (Array.length (Matrix.row m i) >= 2)
  done;
  check "costs spread" true
    (List.exists (fun j -> Matrix.cost m j > 1) (List.init 300 Fun.id));
  Matrix.transpose_check m

let test_vertex_cover_gap () =
  (* odd structures make the LP gap strictly positive almost surely at
     this density; at minimum the LP bound must bracket correctly *)
  let m = Benchsuite.Randucp.vertex_cover ~name:"vc-gap" ~n_vertices:10 ~n_edges:18 () in
  let lp = (Lagrangian.Lp.solve m).Lagrangian.Lp.value in
  let opt = (Covering.Exact.solve m).Covering.Exact.cost in
  check "lp below opt" true (lp <= float_of_int opt +. 1e-6);
  check "lp at least half opt" true (2. *. lp >= float_of_int opt -. 1e-6)

let test_cyclic_cost_spread () =
  let m = Benchsuite.Randucp.cyclic ~name:"r" ~n_rows:30 ~n_cols:20 ~k:3 ~cost_spread:4 () in
  let costs = List.init (Matrix.n_cols m) (Matrix.cost m) in
  check "within range" true (List.for_all (fun c -> c >= 1 && c <= 5) costs);
  check "not uniform" true (List.exists (fun c -> c > 1) costs)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_counts () =
  Alcotest.(check int) "easy 49" 49 (List.length (Benchsuite.Registry.easy ()));
  Alcotest.(check int) "difficult 7" 7 (List.length (Benchsuite.Registry.difficult ()));
  Alcotest.(check int) "dense 5" 5 (List.length (Benchsuite.Registry.dense ()));
  Alcotest.(check int) "challenging 16" 16
    (List.length (Benchsuite.Registry.challenging ()));
  Alcotest.(check int) "scale 5" 5 (List.length (Benchsuite.Registry.scale ()));
  Alcotest.(check int) "total 82" 82 (List.length (Benchsuite.Registry.all ()))

let test_registry_names_unique () =
  let names = List.map (fun i -> i.Benchsuite.Registry.name) (Benchsuite.Registry.all ()) in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq Stdlib.compare names))

let test_registry_find () =
  let i = Benchsuite.Registry.find "bench1" in
  check "category" true (i.Benchsuite.Registry.category = Benchsuite.Registry.Difficult);
  check "unknown raises" true
    (try ignore (Benchsuite.Registry.find "nope"); false with Not_found -> true)

let test_registry_matrices_wellformed () =
  (* spot-check one instance per category *)
  List.iter
    (fun name ->
      let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find name) in
      Matrix.transpose_check m;
      check (name ^ " nonempty") true (Matrix.n_rows m > 0))
    [ "parity4"; "ucp-easy01"; "t1"; "misj"; "pdc" ]

let () =
  Alcotest.run "benchsuite"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "of_string" `Quick test_rng_of_string;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "plagen",
        [
          Alcotest.test_case "parity" `Quick test_parity_structure;
          Alcotest.test_case "majority" `Quick test_majority_optimum;
          Alcotest.test_case "mux" `Quick test_mux_optimum;
          Alcotest.test_case "deterministic" `Quick test_random_pla_deterministic;
          Alcotest.test_case "random dc" `Quick test_with_random_dc;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "axioms" `Quick test_steiner_axioms;
          Alcotest.test_case "matrix" `Quick test_steiner_matrix;
          Alcotest.test_case "invalid" `Quick test_steiner_invalid;
        ] );
      ( "randucp",
        [
          Alcotest.test_case "reducible" `Quick test_reducible_profile;
          Alcotest.test_case "cyclic" `Quick test_cyclic_profile;
          Alcotest.test_case "cost spread" `Quick test_cyclic_cost_spread;
          Alcotest.test_case "vertex cover" `Quick test_vertex_cover_structure;
          Alcotest.test_case "vertex cover gap" `Quick test_vertex_cover_gap;
          Alcotest.test_case "beasley" `Quick test_beasley_structure;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counts" `Quick test_registry_counts;
          Alcotest.test_case "unique names" `Quick test_registry_names_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "matrices" `Quick test_registry_matrices_wellformed;
        ] );
    ]
