(* Shared generators and oracles for the test suites. *)

module Matrix = Covering.Matrix

(* the pass engine the worklist reduction engine is tested against *)
module Reduce_oracle = Reduce_oracle

(* the tabulation the implicit prime generator is tested against *)
module Qm = Qm

(* the hash-table greedy the flat-array MIS bound is tested against *)
module Mis_oracle = Mis_oracle

(* the per-subset generator the shared-memo multi-output primes are
   tested against *)
module Multi_oracle = Multi_oracle

(* The sort-based pruning [Matrix.irredundant] replaced, kept as its
   test oracle: sort the cover's columns by cost descending, ties by
   index descending, on every call, then drop each redundant one in that
   order. *)
let irredundant_oracle m sol =
  if not (Matrix.covers m sol) then invalid_arg "Matrix.irredundant: not a cover";
  let sol = List.sort_uniq Int.compare sol in
  let times_covered = Array.make (Matrix.n_rows m) 0 in
  List.iter
    (fun j -> Array.iter (fun i -> times_covered.(i) <- times_covered.(i) + 1) (Matrix.col m j))
    sol;
  let order = Array.of_list sol in
  Array.sort
    (fun a b ->
      let c = Int.compare (Matrix.cost m b) (Matrix.cost m a) in
      if c <> 0 then c else Int.compare b a)
    order;
  let kept = Array.make (Matrix.n_cols m) false in
  List.iter (fun j -> kept.(j) <- true) sol;
  Array.iter
    (fun j ->
      let redundant = Array.for_all (fun i -> times_covered.(i) >= 2) (Matrix.col m j) in
      if redundant then begin
        kept.(j) <- false;
        Array.iter (fun i -> times_covered.(i) <- times_covered.(i) - 1) (Matrix.col m j)
      end)
    order;
  List.filter (fun j -> kept.(j)) sol

(* A random feasible covering matrix: [n_rows] rows over [n_cols] columns,
   density roughly [density], every row non-empty by construction. *)
let random_matrix rng ?(uniform = false) ~n_rows ~n_cols ~density () =
  let rows =
    List.init n_rows (fun _ ->
        let r =
          List.filter
            (fun _ -> Random.State.float rng 1.0 < density)
            (List.init n_cols Fun.id)
        in
        if r = [] then [ Random.State.int rng n_cols ] else r)
  in
  let cost =
    Array.init n_cols (fun _ -> if uniform then 1 else 1 + Random.State.int rng 5)
  in
  Matrix.create ~cost ~n_cols rows

(* QCheck wrapper: a seed-driven arbitrary so shrinking stays trivial. *)
let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let small_matrix_of_seed ?uniform seed =
  let rng = Random.State.make [| seed |] in
  let n_rows = 2 + Random.State.int rng 8 in
  let n_cols = 2 + Random.State.int rng 8 in
  random_matrix rng ?uniform ~n_rows ~n_cols ~density:0.35 ()

let medium_matrix_of_seed ?uniform seed =
  let rng = Random.State.make [| seed |] in
  let n_rows = 10 + Random.State.int rng 25 in
  let n_cols = 8 + Random.State.int rng 16 in
  random_matrix rng ?uniform ~n_rows ~n_cols ~density:0.2 ()

(* The seeded generator cores of the golden corpus (test_golden.ml), with
   their subgradient-step budgets. *)
let golden_cores =
  let module R = Benchsuite.Randucp in
  [
    ("cyclic-35x24-k3", None, fun () -> R.cyclic ~name:"golden-cyclic-1" ~n_rows:35 ~n_cols:24 ~k:3 ());
    ("cyclic-38x26-k3", None, fun () -> R.cyclic ~name:"golden-cyclic-2" ~n_rows:38 ~n_cols:26 ~k:3 ());
    ( "cyclic-35x21-k4-spread",
      None,
      fun () -> R.cyclic ~name:"golden-cyclic-3" ~n_rows:35 ~n_cols:21 ~k:4 ~cost_spread:3 () );
    ( "dense-cyclic-40x30",
      None,
      fun () -> R.dense_cyclic ~name:"golden-dense-1" ~n_rows:40 ~n_cols:30 ~density:0.25 () );
    ( "dense-cyclic-48x32-spread",
      None,
      fun () ->
        R.dense_cyclic ~name:"golden-dense-2" ~n_rows:48 ~n_cols:32 ~density:0.3 ~cost_spread:4 () );
    ( "multi-2x30x20",
      None,
      fun () ->
        R.multi_component ~name:"golden-multi-1" ~parts:2 ~rows_per_part:30 ~cols_per_part:20 () );
    ( "multi-3x25x18-spread",
      None,
      fun () ->
        R.multi_component ~name:"golden-multi-2" ~parts:3 ~rows_per_part:25 ~cols_per_part:18
          ~cost_spread:4 () );
    ( "beasley-60x800",
      Some 400,
      fun () -> R.beasley ~name:"golden-beasley" ~n_rows:60 ~n_cols:800 ~rows_per_col:4 () );
    ( "powerlaw-200x800",
      Some 400,
      fun () -> R.powerlaw ~name:"golden-powerlaw" ~n_rows:200 ~n_cols:800 () );
  ]

(* The worked bound-hierarchy instances live in the benchmark suite so the
   examples and benches share them; re-exported here for the test files. *)
let fig1_matrix = Benchsuite.Worked.fig1
let c5_matrix = Benchsuite.Worked.c5

(* substring test for error-message assertions *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Shared parser corpora                                              *)
(*                                                                    *)
(* One copy of the known-good inputs and the malformed corpus per     *)
(* text format, used by test_parse_errors (parsers called directly)   *)
(* and test_serve (the same bytes arriving over the daemon socket     *)
(* must come back as PARSE_ERROR, never crash a worker).  Each        *)
(* malformed entry is (name, input, line, expected-message-substring).*)
(* ------------------------------------------------------------------ *)

let good_ucp = "# c\np ucp 3 4\nc 1 2 1 3\nr 0 1\nr 1 2\nr 2 3\n"
let good_orlib = "3 4\n1 2 1 3\n2 1 2\n2 2 3\n2 3 4\n"
let good_pla = ".i 3\n.o 2\n.type fd\n11- 10\n-01 1-\n0-0 01\n.e\n"
let good_kiss = ".i 1\n.o 1\n.r a\n0 a b 0\n1 a a 1\n0 b a -\n1 b b 0\n.e\n"

let ucp_corpus =
  [
    ("junk line", "bad", 1, Some "unrecognised");
    ("zero cols", "p ucp 2 0", 1, Some "dimensions");
    ("negative rows", "p ucp -1 3", 1, Some "dimensions");
    ("cost before p", "c 1 2", 1, Some "before the p line");
    ("row before p", "r 0", 1, Some "before the p line");
    ("cost count", "p ucp 1 3\nc 1 2", 2, Some "cost count");
    ("negative cost", "p ucp 1 3\nc 1 -2 3", 2, Some "non-positive");
    ("empty row", "p ucp 1 3\nr", 2, Some "empty row");
    ("column range", "p ucp 1 3\nr 5", 2, Some "out of range");
    ("junk int", "p ucp 1 3\nr x", 2, None);
    ("row count", "p ucp 2 3\nr 0", 0, Some "declares 2 rows");
    ("no p line", "# only a comment", 0, Some "missing p line");
    ("empty input", "", 0, Some "missing p line");
  ]

let orlib_corpus =
  [
    ("empty", "", 0, Some "missing dimensions");
    ("lonely int", "3", 0, Some "missing dimensions");
    ("zero cols", "2 0", 1, Some "dimensions");
    ("junk token", "1 2\n1 x", 2, None);
    ("missing costs", "1 2\n1", 2, Some "unexpected end");
    ("zero cost", "1 2\n1 0\n1 1", 2, Some "non-positive");
    ("missing rows", "1 2\n1 1", 2, Some "missing row");
    ("negative count", "1 2\n1 1\n-1", 3, Some "negative column count");
    ("column range", "1 2\n1 1\n1 5", 3, Some "out of range");
    ("column zero", "1 2\n1 1\n1 0", 3, Some "out of range");
    ("missing cols", "1 2\n1 1\n2 1", 3, Some "unexpected end");
    ("trailing", "1 2\n1 1\n1 1\n7", 4, Some "trailing");
  ]

let pla_corpus =
  [
    ("junk .i", ".i x", 1, None);
    ("bad type", ".i 2\n.o 1\n.type zz", 3, Some ".type");
    ("unsupported", ".phase 01", 1, Some "unsupported");
    ("bad directive", ".frob 3", 1, Some "unrecognised");
    ("cube before .i", "00 1", 1, Some ".i must precede");
    ("cube before .o", ".i 2\n00 1", 2, Some ".o must precede");
    ("input width", ".i 2\n.o 1\n0 1", 3, Some "input plane width");
    ("output width", ".i 2\n.o 1\n00 11", 3, Some "output plane width");
    ("bad cube char", ".i 2\n.o 1\n0z 1", 3, None);
    ("bad output char", ".i 2\n.o 1\n00 2", 3, Some "output plane");
    ("one field", ".i 2\n.o 1\n00", 3, Some "expected");
    ("missing .i", "# nothing\n.e", 0, Some "missing .i");
    ("missing .o", ".i 2\n.e", 0, Some "missing .o");
    ("empty input", "", 0, Some "missing .i");
  ]

let kiss_corpus =
  [
    ("junk .i", ".i x", 1, None);
    ("bad directive", ".frob", 1, Some "unrecognised");
    ("early transition", "0 s0 s1 0", 1, Some ".i/.o must precede");
    ("three fields", ".i 1\n.o 1\n0 s0 s1", 3, Some "expected");
    ("input width", ".i 1\n.o 1\n00 s0 s1 0", 3, Some "input width");
    ("output width", ".i 1\n.o 1\n0 s0 s1 00", 3, Some "output width");
    ("bad cube", ".i 1\n.o 1\nz s0 s1 0", 3, None);
    ("missing .i", ".e", 0, Some "missing .i");
    ("missing .o", ".i 1\n.e", 0, Some "missing .o");
    ("empty input", "", 0, Some "missing .i");
  ]
