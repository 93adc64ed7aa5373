(* Shared generators for the covering-layer test suites. *)

module Matrix = Covering.Matrix

(* the pass engine the worklist reduction engine is tested against *)
module Reduce_oracle = Reduce_oracle

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
