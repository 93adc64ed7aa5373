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
  let inter = Family.inter
  let diff = Family.diff

  let product a b =
    Family.fold
      (fun s acc -> Family.fold (fun t acc -> Family.add (IntSet.union s t) acc) b acc)
      a Family.empty

  let no_sup_set a b =
    Family.filter (fun s -> not (Family.exists (fun t -> IntSet.subset t s) b)) a

  let no_sub_set a b =
    Family.filter (fun s -> not (Family.exists (fun t -> IntSet.subset s t) b)) a

  let minimal a =
    Family.filter
      (fun s ->
        not (Family.exists (fun t -> (not (IntSet.equal s t)) && IntSet.subset t s) a))
      a

  let maximal a =
    Family.filter
      (fun s ->
        not (Family.exists (fun t -> (not (IntSet.equal s t)) && IntSet.subset s t) a))
      a

  let subset1 a v =
    Family.filter_map (fun s -> if IntSet.mem v s then Some (IntSet.remove v s) else None) a

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
  check "base contains empty set" (Zdd.contains_empty_set Zdd.base);
  check "empty lacks empty set" (not (Zdd.contains_empty_set Zdd.empty));
  Alcotest.(check (float 0.)) "count empty" 0. (Zdd.count Zdd.empty);
  Alcotest.(check (float 0.)) "count base" 1. (Zdd.count Zdd.base)

let test_of_set () =
  let z = Zdd.of_set [ 3; 1; 1; 5 ] in
  Alcotest.(check (float 0.)) "one set" 1. (Zdd.count z);
  check "mem" (Zdd.mem [ 1; 3; 5 ] z);
  check "mem unsorted" (Zdd.mem [ 5; 1; 3 ] z);
  check "not mem subset" (not (Zdd.mem [ 1; 3 ] z));
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

let test_min_card () =
  let z = Zdd.of_sets [ [ 0; 4 ]; [ 2; 3; 5 ]; [ 1 ] ] in
  Alcotest.(check int) "min_card" 1 (Zdd.min_card z);
  let z2 = Zdd.of_sets [ [ 0; 4 ]; [ 2; 3; 5 ] ] in
  Alcotest.(check int) "min_card 2" 2 (Zdd.min_card z2);
  Alcotest.(check int) "min_card base" 0 (Zdd.min_card Zdd.base)

let test_choose () =
  let z = Zdd.of_sets [ [ 2; 3 ] ] in
  Alcotest.(check (list int)) "choose" [ 2; 3 ] (Zdd.choose z);
  Alcotest.check_raises "choose empty" Not_found (fun () -> ignore (Zdd.choose Zdd.empty))

let test_minimal_example () =
  (* rows {1,2}, {1}, {2,3}: row {1,2} is a superset of {1} and must go *)
  let z = Zdd.of_sets [ [ 1; 2 ]; [ 1 ]; [ 2; 3 ] ] in
  let m = Zdd.minimal z in
  Alcotest.(check (list (list int)))
    "minimal" [ [ 1 ]; [ 2; 3 ] ]
    (List.sort Stdlib.compare (Zdd.to_sets m))

let test_project_out () =
  let z = Zdd.of_sets [ [ 1; 2 ]; [ 2 ]; [ 3 ] ] in
  let p = Zdd.project_out z 2 in
  Alcotest.(check (list (list int)))
    "project_out" [ []; [ 1 ]; [ 3 ] ]
    (List.sort Stdlib.compare (Zdd.to_sets p))

let test_combinations_count () =
  (* the family of all k-subsets of an n-set has C(n, k) members; build it
     by repeated product-with-singletons and minimality filtering *)
  let n = 10 and k = 3 in
  let singletons = List.init n Zdd.singleton in
  let union_all = List.fold_left Zdd.union Zdd.empty singletons in
  (* all subsets of size <= k via repeated product, then exact-size filter *)
  let rec pow acc depth = if depth = 0 then acc else pow (Zdd.product acc union_all) (depth - 1) in
  let upto = pow Zdd.base k in
  let exactly =
    Zdd.fold_sets upto ~init:Zdd.empty ~f:(fun acc s ->
        if List.length s = k then Zdd.union acc (Zdd.of_set s) else acc)
  in
  Alcotest.(check (float 0.)) "C(10,3)" 120. (Zdd.count exactly)

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
    QCheck.Test.make ~name:"product is associative and commutative" ~count:100
      (QCheck.triple arb_family arb_family arb_family) (fun (a, b, c) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b and zc = zdd_of_lists c in
        Zdd.equal (Zdd.product za (Zdd.product zb zc)) (Zdd.product (Zdd.product za zb) zc)
        && Zdd.equal (Zdd.product za zb) (Zdd.product zb za));
    QCheck.Test.make ~name:"product distributes over union" ~count:100
      (QCheck.triple arb_family arb_family arb_family) (fun (a, b, c) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b and zc = zdd_of_lists c in
        Zdd.equal
          (Zdd.product za (Zdd.union zb zc))
          (Zdd.union (Zdd.product za zb) (Zdd.product za zc)));
    QCheck.Test.make ~name:"base is the product unit" ~count:100 arb_family (fun a ->
        let za = zdd_of_lists a in
        Zdd.equal (Zdd.product za Zdd.base) za);
    QCheck.Test.make ~name:"diff/inter/union partition" ~count:150
      (QCheck.pair arb_family arb_family) (fun (a, b) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b in
        Zdd.equal (Zdd.union (Zdd.diff za zb) (Zdd.inter za zb)) za);
    QCheck.Test.make ~name:"minimal and maximal are idempotent" ~count:150 arb_family
      (fun a ->
        let za = zdd_of_lists a in
        Zdd.equal (Zdd.minimal (Zdd.minimal za)) (Zdd.minimal za)
        && Zdd.equal (Zdd.maximal (Zdd.maximal za)) (Zdd.maximal za));
    QCheck.Test.make ~name:"project_out removes the element everywhere" ~count:150
      (QCheck.pair arb_family (QCheck.int_bound (max_elt - 1))) (fun (a, v) ->
        let p = Zdd.project_out (zdd_of_lists a) v in
        not (List.mem v (Zdd.support p)));
    QCheck.Test.make ~name:"min_card matches enumeration" ~count:150 arb_family
      (fun a ->
        let za = zdd_of_lists a in
        if Zdd.is_empty za then true
        else
          let sizes = List.map List.length (Zdd.to_sets za) in
          Zdd.min_card za = List.fold_left min max_int sizes);
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
    binop_prop "inter" Zdd.inter Model.inter;
    binop_prop "diff" Zdd.diff Model.diff;
    binop_prop "product" Zdd.product Model.product;
    binop_prop "no_sup_set" Zdd.no_sup_set Model.no_sup_set;
    binop_prop "no_sub_set" Zdd.no_sub_set Model.no_sub_set;
    unop_prop "minimal" Zdd.minimal Model.minimal;
    unop_prop "maximal" Zdd.maximal Model.maximal;
    eltop_prop "subset1" Zdd.subset1 Model.subset1;
    eltop_prop "subset0" Zdd.subset0 Model.subset0;
    eltop_prop "change" Zdd.change Model.change;
    QCheck.Test.make ~name:"count" ~count:300 arb_family (fun a ->
        int_of_float (Zdd.count (zdd_of_lists a)) = Model.count (model_of_lists a));
    QCheck.Test.make ~name:"sup_set + no_sup_set partition" ~count:200
      (QCheck.pair arb_family arb_family) (fun (a, b) ->
        let za = zdd_of_lists a and zb = zdd_of_lists b in
        Zdd.equal (Zdd.union (Zdd.sup_set za zb) (Zdd.no_sup_set za zb)) za);
    QCheck.Test.make ~name:"minimal is antichain" ~count:200 arb_family (fun a ->
        let m = Zdd.minimal (zdd_of_lists a) in
        let sets = List.map IntSet.of_list (Zdd.to_sets m) in
        List.for_all
          (fun s ->
            List.for_all
              (fun t -> IntSet.equal s t || not (IntSet.subset s t))
              sets)
          sets);
    QCheck.Test.make ~name:"mem agrees with model" ~count:300
      (QCheck.pair arb_family (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 5) (QCheck.Gen.int_bound (max_elt - 1)))))
      (fun (a, s) ->
        Zdd.mem s (zdd_of_lists a)
        = Model.Family.mem (IntSet.of_list s) (model_of_lists a));
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
          Alcotest.test_case "min_card" `Quick test_min_card;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "minimal example" `Quick test_minimal_example;
          Alcotest.test_case "project_out" `Quick test_project_out;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "combinations" `Quick test_combinations_count;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ("algebra", List.map QCheck_alcotest.to_alcotest algebra_props);
    ]
