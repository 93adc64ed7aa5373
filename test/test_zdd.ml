(* Model-based tests for the ZDD engine.

   Reference model: families of sets as sorted [int list list].  Every ZDD
   operation is checked against its naive counterpart on random families —
   this pins down the subtle subset/superset recursions the covering layer
   depends on. *)

module IntSet = Set.Make (Int)

module Model = struct
  module Family = Set.Make (IntSet)

  let of_lists ls = Family.of_list (List.map IntSet.of_list ls)
  let to_lists f = List.map IntSet.elements (Family.elements f)
  let union = Family.union
  let diff = Family.diff

  let minimal a =
    Family.filter
      (fun s ->
        not (Family.exists (fun t -> (not (IntSet.equal s t)) && IntSet.subset t s) a))
      a

  let subset0 a v = Family.filter (fun s -> not (IntSet.mem v s)) a

  let change a v =
    Family.map
      (fun s -> if IntSet.mem v s then IntSet.remove v s else IntSet.add v s)
      a

  let count = Family.cardinal
end

let max_elt = 7

let gen_family =
  QCheck.Gen.(
    list_size (int_bound 10)
      (list_size (int_bound 5) (int_bound (max_elt - 1))))

let arb_family =
  QCheck.make
    ~print:(fun ls ->
      String.concat "; "
        (List.map (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}") ls))
    gen_family

(* families that stress the one-pass constructor: members drawn from a
   small pool (duplicate sets), pool members extended past their largest
   element (shared prefixes), doubled (repeated elements) or shuffled
   (unsorted), ∅ members, and the empty list *)
let gen_messy_family =
  let open QCheck.Gen in
  let set = list_size (int_bound 6) (int_bound 11) in
  list_size (int_range 1 4) set >>= fun pool ->
  let member =
    oneof
      [
        oneofl pool;
        map2 (fun p ext -> p @ List.map (( + ) 12) ext) (oneofl pool) set;
        map (fun p -> p @ p) (oneofl pool);
        oneofl pool >>= shuffle_l;
        return [];
      ]
  in
  list_size (int_bound 12) member

let zdd_of_lists ls = Zdd.of_sets ls
let model_of_lists = Model.of_lists

let same_family zdd model =
  let zs = List.sort Stdlib.compare (Zdd.to_sets zdd) in
  let ms =
    List.sort Stdlib.compare (List.map (List.sort Stdlib.compare) (Model.to_lists model))
  in
  zs = ms

let binop_prop name zop mop =
  QCheck.Test.make ~name ~count:300 (QCheck.pair arb_family arb_family) (fun (a, b) ->
      same_family (zop (zdd_of_lists a) (zdd_of_lists b)) (mop (model_of_lists a) (model_of_lists b)))

let unop_prop name zop mop =
  QCheck.Test.make ~name ~count:300 arb_family (fun a ->
      same_family (zop (zdd_of_lists a)) (mop (model_of_lists a)))

let eltop_prop name zop mop =
  QCheck.Test.make ~name ~count:300
    (QCheck.pair arb_family (QCheck.int_bound (max_elt - 1)))
    (fun (a, v) -> same_family (zop (zdd_of_lists a) v) (mop (model_of_lists a) v))

let check name = Alcotest.(check bool) name true

let test_constants () =
  check "empty is empty" (Zdd.is_empty Zdd.empty);
  check "base is base" (Zdd.is_base Zdd.base);
  check "base not empty" (not (Zdd.is_empty Zdd.base));
  Alcotest.(check (float 0.)) "count empty" 0. (Zdd.count Zdd.empty);
  Alcotest.(check (float 0.)) "count base" 1. (Zdd.count Zdd.base)

let test_of_set () =
  let z = Zdd.of_set [ 3; 1; 1; 5 ] in
  Alcotest.(check (float 0.)) "one set" 1. (Zdd.count z);
  Alcotest.(check (list (list int))) "to_sets" [ [ 1; 3; 5 ] ] (Zdd.to_sets z)

let test_of_sets_edges () =
  check "no sets" (Zdd.is_empty (Zdd.of_sets []));
  check "only the empty set" (Zdd.is_base (Zdd.of_sets [ []; [] ]));
  Alcotest.check_raises "negative element"
    (Invalid_argument "Zdd.of_sets: negative element") (fun () ->
      ignore (Zdd.of_sets [ [ 1 ]; [ 3; -2; 3 ] ]));
  (* unsorted members are normalised on a copy, never in place *)
  let rows = [| [| 4; 1; 4 |]; [| 0; 2 |] |] in
  let z = Zdd.of_arrays rows in
  check "input untouched" (rows = [| [| 4; 1; 4 |]; [| 0; 2 |] |]);
  Alcotest.(check (list (list int))) "members" [ [ 0; 2 ]; [ 1; 4 ] ] (Zdd.to_sets z)

let test_singletons () =
  let z = Zdd.of_sets [ [ 0 ]; [ 2 ]; [ 1; 3 ]; [] ] in
  Alcotest.(check (list int)) "singletons" [ 0; 2 ] (Zdd.singletons z)

let test_support () =
  let z = Zdd.of_sets [ [ 0; 4 ]; [ 2 ]; [] ] in
  Alcotest.(check (list int)) "support" [ 0; 2; 4 ] (Zdd.support z)

let test_minimal_example () =
  (* rows {1,2}, {1}, {2,3}: row {1,2} is a superset of {1} and must go *)
  let z = Zdd.of_sets [ [ 1; 2 ]; [ 1 ]; [ 2; 3 ] ] in
  let m = Zdd.minimal z in
  Alcotest.(check (list (list int)))
    "minimal" [ [ 1 ]; [ 2; 3 ] ]
    (List.sort Stdlib.compare (Zdd.to_sets m))

let test_canonicity () =
  let a = Zdd.of_sets [ [ 1; 2 ]; [ 3 ] ] in
  let b = Zdd.union (Zdd.of_set [ 3 ]) (Zdd.of_set [ 2; 1 ]) in
  check "same family is physically equal" (Zdd.equal a b)

let algebra_props =
  [
    QCheck.Test.make ~name:"union is associative and commutative" ~count:150
      (QCheck.triple arb_family arb_family arb_family) (fun (a, b, c) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b and zc = zdd_of_lists c in
        Zdd.equal (Zdd.union za (Zdd.union zb zc)) (Zdd.union (Zdd.union za zb) zc)
        && Zdd.equal (Zdd.union za zb) (Zdd.union zb za));
    (* a \ (a \ b) is a ∩ b, so the two diffs split a *)
    QCheck.Test.make ~name:"diff/union partition" ~count:150
      (QCheck.pair arb_family arb_family) (fun (a, b) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b in
        let outside = Zdd.diff za zb in
        Zdd.equal (Zdd.union outside (Zdd.diff za outside)) za);
    QCheck.Test.make ~name:"minimal is idempotent" ~count:150 arb_family (fun a ->
        let za = zdd_of_lists a in
        Zdd.equal (Zdd.minimal (Zdd.minimal za)) (Zdd.minimal za));
  ]

let props =
  [
    (* the union fold [of_sets] replaced, kept as its reference *)
    QCheck.Test.make ~name:"of_sets == fold of union/of_set" ~count:500
      (QCheck.make ~print:QCheck.Print.(list (list int)) gen_messy_family)
      (fun l ->
        Zdd.equal (Zdd.of_sets l)
          (List.fold_left (fun acc s -> Zdd.union acc (Zdd.of_set s)) Zdd.empty l));
    binop_prop "union" Zdd.union Model.union;
    binop_prop "diff" Zdd.diff Model.diff;
    unop_prop "minimal" Zdd.minimal Model.minimal;
    eltop_prop "subset0" Zdd.subset0 Model.subset0;
    eltop_prop "change" Zdd.change Model.change;
    QCheck.Test.make ~name:"count" ~count:300 arb_family (fun a ->
        int_of_float (Zdd.count (zdd_of_lists a)) = Model.count (model_of_lists a));
    QCheck.Test.make ~name:"minimal is antichain" ~count:200 arb_family (fun a ->
        let m = Zdd.minimal (zdd_of_lists a) in
        let sets = List.map IntSet.of_list (Zdd.to_sets m) in
        List.for_all
          (fun s ->
            List.for_all
              (fun t -> IntSet.equal s t || not (IntSet.subset s t))
              sets)
          sets);
  ]

let () =
  Alcotest.run "zdd"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_set" `Quick test_of_set;
          Alcotest.test_case "of_sets edges" `Quick test_of_sets_edges;
          Alcotest.test_case "singletons" `Quick test_singletons;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "minimal example" `Quick test_minimal_example;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ("algebra", List.map QCheck_alcotest.to_alcotest algebra_props);
    ]
