(* The big-instance pipeline: adversarial generators, streaming parser
   round-trips and the O(1)-memory property of the counting fold.

   The planted generator is the one family with an exact cost oracle
   (optimum = 2·blocks by construction, see Randucp.planted), so it
   doubles as an end-to-end solver correctness test at sizes where the
   exact solver cannot confirm anything.

   The registry's scale tier gets the same pipeline: both text formats
   round-trip, the counting fold stays flat on every file, and its
   budgeted answers are golden lines (test_golden.ml).  The routing
   group drives large inputs through the other two solver fronts, the
   espresso loop and the KISS/binate minimiser.

   Everything here is CI-sized.  Set UCP_SCALE_BIG=1 to add the three
   expensive checks behind the scale acceptance bar: a >= 100 MB
   synthetic OR-Library file streamed in bounded memory, the
   10^5-column planted instance solved to its certificate through the
   raised MaxR/MaxC guards (the implicit-phase skip), and a 512-state
   KISS machine minimised to its 64 behaviour classes. *)

module Matrix = Covering.Matrix
module Instance = Covering.Instance
module Randucp = Benchsuite.Randucp
module Registry = Benchsuite.Registry

let big_enabled = Sys.getenv_opt "UCP_SCALE_BIG" = Some "1"

let matrix_equal a b =
  Matrix.n_rows a = Matrix.n_rows b
  && Matrix.n_cols a = Matrix.n_cols b
  && (let eq = ref true in
      for j = 0 to Matrix.n_cols a - 1 do
        if Matrix.cost a j <> Matrix.cost b j then eq := false
      done;
      for i = 0 to Matrix.n_rows a - 1 do
        if Matrix.row a i <> Matrix.row b i then eq := false
      done;
      !eq)

let with_temp_file suffix f =
  let path = Filename.temp_file "ucp_scale" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_orlib_matrix path m =
  Out_channel.with_open_text path (fun oc -> Instance.output_orlib oc m)

(* the registry's scale tier as first generated: rows, columns, nonzeros
   and the counting fold's heap growth per byte of its OR-Library file *)
let scale_tier =
  [
    ("scale-planted-s", 2400, 1600, 4800, 0.0);
    ("scale-planted-x", 1200, 780, 2684, 0.0);
    ("scale-powerlaw", 1500, 6000, 35925, 0.3466);
    ("scale-beasley-wide", 400, 8000, 48000, 0.2600);
    ("scale-multi-8", 480, 360, 1440, 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* planted-optimum certificates                                       *)
(* ------------------------------------------------------------------ *)

(* one parameter set per regime: plain blocks, cross columns, big
   blocks with many decoys *)
let planted_cases =
  [
    ("plain", 5, 6, 3, 0);
    ("cross", 8, 8, 4, 6);
    ("deep", 3, 12, 5, 2);
    ("wide", 40, 6, 3, 0);
  ]

let test_planted_certificates () =
  List.iter
    (fun (tag, blocks, r, g, cross) ->
      let m, opt =
        Randucp.planted ~name:("cert-" ^ tag) ~blocks ~rows_per_block:r
          ~decoys_per_block:g ~cross ()
      in
      Alcotest.(check int) (tag ^ ": certificate") (2 * blocks) opt;
      let res = Scg.solve m in
      Alcotest.(check int) (tag ^ ": solved cost") opt res.Scg.cost;
      Alcotest.(check bool) (tag ^ ": proven") true res.Scg.proven_optimal)
    planted_cases

let test_planted_validation () =
  let expect_invalid tag f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" tag
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "blocks<1" (fun () ->
      Randucp.planted ~name:"x" ~blocks:0 ~rows_per_block:6 ~decoys_per_block:3 ());
  expect_invalid "decoys<3" (fun () ->
      Randucp.planted ~name:"x" ~blocks:2 ~rows_per_block:6 ~decoys_per_block:2 ());
  expect_invalid "rows<decoys" (fun () ->
      Randucp.planted ~name:"x" ~blocks:2 ~rows_per_block:2 ~decoys_per_block:3 ());
  expect_invalid "cross needs 2 blocks" (fun () ->
      Randucp.planted ~name:"x" ~blocks:1 ~rows_per_block:6 ~decoys_per_block:3
        ~cross:1 ());
  expect_invalid "powerlaw alpha<=1" (fun () ->
      Randucp.powerlaw ~name:"x" ~n_rows:10 ~n_cols:10 ~alpha:1.0 ());
  expect_invalid "multi parts<1" (fun () ->
      Randucp.multi_component ~name:"x" ~parts:0 ~rows_per_part:4 ~cols_per_part:4 ())

(* the planted optimum survives the full scale pipeline: emit to both
   text formats, re-parse through the streaming parsers, solve *)
let test_planted_through_formats () =
  let m, opt =
    Randucp.planted ~name:"pipe" ~blocks:10 ~rows_per_block:8 ~decoys_per_block:4
      ~cross:5 ()
  in
  let via_ucp =
    with_temp_file ".ucp" (fun path ->
        Instance.write_file path m;
        Instance.parse_file path)
  in
  let via_orlib = Instance.parse_orlib (Instance.to_orlib m) in
  Alcotest.(check bool) "ucp identical" true (matrix_equal m via_ucp);
  Alcotest.(check bool) "orlib identical" true (matrix_equal m via_orlib);
  let res = Scg.solve via_orlib in
  Alcotest.(check int) "cost after round-trip" opt res.Scg.cost

(* ------------------------------------------------------------------ *)
(* generator family round-trips                                       *)
(* ------------------------------------------------------------------ *)

let family_samples () =
  [
    ("cyclic", Randucp.cyclic ~name:"rt-cyc" ~n_rows:40 ~n_cols:30 ~k:3 ());
    ( "beasley",
      Randucp.beasley ~name:"rt-bea" ~n_rows:30 ~n_cols:120 ~rows_per_col:4 () );
    ( "powerlaw",
      Randucp.powerlaw ~name:"rt-pow" ~n_rows:80 ~n_cols:200 ~alpha:2.1 () );
    ("planted", fst (Randucp.planted ~name:"rt-pla" ~blocks:6 ~rows_per_block:7
                       ~decoys_per_block:3 ~cross:3 ()));
    ( "multi",
      Randucp.multi_component ~name:"rt-mul" ~parts:4 ~rows_per_part:12
        ~cols_per_part:9 () );
  ]

let test_family_roundtrips () =
  List.iter
    (fun (tag, m) ->
      (* .ucp through the file writer and the streaming file parser *)
      let m_ucp =
        with_temp_file ".ucp" (fun path ->
            Instance.write_file path m;
            Instance.parse_file path)
      in
      Alcotest.(check bool) (tag ^ ": ucp file round-trip") true
        (matrix_equal m m_ucp);
      (* OR-Library through the channel writer and the streaming parser *)
      let m_orlib =
        with_temp_file ".scp" (fun path ->
            write_orlib_matrix path m;
            Instance.parse_orlib_file path)
      in
      Alcotest.(check bool) (tag ^ ": orlib file round-trip") true
        (matrix_equal m m_orlib))
    (family_samples ())

(* generators are deterministic functions of their name *)
let test_determinism () =
  let a, oa =
    Randucp.planted ~name:"det" ~blocks:7 ~rows_per_block:6 ~decoys_per_block:3 ()
  in
  let b, ob =
    Randucp.planted ~name:"det" ~blocks:7 ~rows_per_block:6 ~decoys_per_block:3 ()
  in
  Alcotest.(check int) "same certificate" oa ob;
  Alcotest.(check bool) "same matrix" true (matrix_equal a b);
  let p = Randucp.powerlaw ~name:"det" ~n_rows:50 ~n_cols:80 () in
  let q = Randucp.powerlaw ~name:"det" ~n_rows:50 ~n_cols:80 () in
  Alcotest.(check bool) "powerlaw deterministic" true (matrix_equal p q)

(* ------------------------------------------------------------------ *)
(* registry-wide streaming/legacy equivalence                         *)
(* ------------------------------------------------------------------ *)

(* every registry matrix survives both text formats bit-for-bit, with
   the in-memory string parsers and the streaming file parsers
   agreeing.  This is the "no instance in the suite distinguishes the
   parsers" property the scale tier relies on.  The scale tier's
   dimensions are pinned too. *)
let test_registry_equivalence () =
  List.iter
    (fun inst ->
      let name = inst.Registry.name in
      let m = Registry.matrix inst in
      let via_string = Instance.parse (Instance.to_string m) in
      Alcotest.(check bool) (name ^ ": ucp string") true
        (matrix_equal m via_string);
      let via_file =
        with_temp_file ".ucp" (fun path ->
            Instance.write_file path m;
            Instance.parse_file path)
      in
      Alcotest.(check bool) (name ^ ": ucp stream") true (matrix_equal m via_file);
      let via_orlib = Instance.parse_orlib (Instance.to_orlib m) in
      Alcotest.(check bool) (name ^ ": orlib string") true
        (matrix_equal m via_orlib);
      let via_orlib_file =
        with_temp_file ".scp" (fun path ->
            write_orlib_matrix path m;
            Instance.parse_orlib_file path)
      in
      Alcotest.(check bool) (name ^ ": orlib stream") true
        (matrix_equal m via_orlib_file))
    (Registry.all ());
  Alcotest.(check (list string)) "scale tier"
    (List.map (fun (name, _, _, _, _) -> name) scale_tier)
    (List.map (fun i -> i.Registry.name) (Registry.scale ()));
  List.iter
    (fun (name, rows, cols, nnz, _) ->
      let m = Registry.matrix (Registry.find name) in
      Alcotest.(check (list int)) (name ^ ": rows, cols, nnz") [ rows; cols; nnz ]
        [ Matrix.n_rows m; Matrix.n_cols m; Matrix.nnz m ])
    scale_tier

(* ------------------------------------------------------------------ *)
(* O(1)-memory counting fold                                          *)
(* ------------------------------------------------------------------ *)

(* heap growth while stream-counting a file, in bytes.  The fold keeps
   no per-row state, so the major heap must not grow with the file:
   the same gauge the scale benchmark gates as fold_mem_ratio. *)
let fold_growth_bytes path =
  let rows = ref 0 and nnz = ref 0 in
  In_channel.with_open_text path (fun ic ->
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.heap_words in
      Logic.Reader.reset_heap_peak ();
      Instance.stream_orlib
        (Logic.Reader.of_channel ic)
        ~dims:(fun ~n_rows:_ ~n_cols:_ -> ())
        ~cost:(fun _ _ -> ())
        ~row:(fun _ cols ->
          incr rows;
          nnz := !nnz + List.length cols);
      let peak = max (Logic.Reader.peak_heap_words ()) before in
      ((peak - before) * (Sys.word_size / 8), !rows, !nnz))

let test_fold_memory () =
  (* a ~1.6 MB planted file: materialising it costs several MB of int
     lists, so a bounded-growth fold is real evidence of streaming *)
  let m, _ =
    Randucp.planted ~name:"mem" ~blocks:12_500 ~rows_per_block:8
      ~decoys_per_block:7 ()
  in
  with_temp_file ".scp" (fun path ->
      write_orlib_matrix path m;
      let file_bytes = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "file is > 1 MB" true (file_bytes > 1_000_000);
      let growth, rows, nnz = fold_growth_bytes path in
      Alcotest.(check int) "fold saw every row" (Matrix.n_rows m) rows;
      Alcotest.(check int) "fold saw every nonzero" (Matrix.nnz m) nnz;
      (* generous: half the file size still rules out any whole-file or
         whole-matrix materialisation (the matrix alone is ~5x bigger) *)
      if growth > file_bytes / 2 then
        Alcotest.failf "counting fold grew the heap by %d bytes on a %d-byte file"
          growth file_bytes);
  (* the scale tier's files are small enough that allocator granularity
     shows, hence 40 % over the first measurement plus 0.25 *)
  List.iter
    (fun (name, _, _, _, ratio) ->
      let m = Registry.matrix (Registry.find name) in
      with_temp_file ".scp" (fun path ->
          write_orlib_matrix path m;
          let file_bytes = (Unix.stat path).Unix.st_size in
          let growth, rows, nnz = fold_growth_bytes path in
          Alcotest.(check int) (name ^ ": fold saw every row") (Matrix.n_rows m) rows;
          Alcotest.(check int) (name ^ ": fold saw every nonzero") (Matrix.nnz m) nnz;
          let fresh = float_of_int growth /. float_of_int file_bytes in
          if fresh > (ratio *. 1.4) +. 0.25 then
            Alcotest.failf "%s: fold grew the heap by %.4f bytes per file byte (first \
                            measured %.4f)"
              name fresh ratio))
    scale_tier

(* ------------------------------------------------------------------ *)
(* UCP_SCALE_BIG=1: the acceptance-bar checks                         *)
(* ------------------------------------------------------------------ *)

(* stream-write a >= 100 MB OR-Library file without ever holding it:
   [rows] rows of [cols_per_row] columns each, cycling over n_cols *)
let write_big_orlib path ~n_rows ~n_cols ~cols_per_row =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "%d %d\n" n_rows n_cols;
      for j = 0 to n_cols - 1 do
        Printf.fprintf oc "%d%c" (1 + (j mod 7)) (if (j + 1) mod 20 = 0 then '\n' else ' ')
      done;
      output_char oc '\n';
      for i = 0 to n_rows - 1 do
        Printf.fprintf oc "%d\n" cols_per_row;
        for c = 0 to cols_per_row - 1 do
          let col = 1 + ((i * 13 + c * 71) mod n_cols) in
          Printf.fprintf oc "%d%c" col (if (c + 1) mod 20 = 0 then '\n' else ' ')
        done;
        if cols_per_row mod 20 <> 0 then output_char oc '\n'
      done)

let test_big_fold_memory () =
  if not big_enabled then () else
    with_temp_file ".scp" (fun path ->
        (* ~85k rows x 200 cols/row of up-to-6-digit indices: > 100 MB *)
        write_big_orlib path ~n_rows:85_000 ~n_cols:100_000 ~cols_per_row:200;
        let file_bytes = (Unix.stat path).Unix.st_size in
        Alcotest.(check bool) "file is >= 100 MB" true
          (file_bytes >= 100_000_000);
        let growth, rows, nnz = fold_growth_bytes path in
        Alcotest.(check int) "rows" 85_000 rows;
        Alcotest.(check int) "nnz" 17_000_000 nnz;
        (* independence of file size: a fixed 16 MB cap, 0.02% of what
           materialisation would need *)
        if growth > 16_000_000 then
          Alcotest.failf "fold grew the heap by %d bytes on a %d-byte file"
            growth file_bytes)

let test_big_planted_solve () =
  if not big_enabled then () else begin
    let m, opt =
      Randucp.planted ~name:"big" ~blocks:12_500 ~rows_per_block:8
        ~decoys_per_block:7 ()
    in
    Alcotest.(check int) "10^5 columns" 100_000 (Matrix.n_cols m);
    Alcotest.(check int) "certificate" 25_000 opt;
    (* stream-parse from disk first: the instance enters exactly as a
       user's file would *)
    let m =
      with_temp_file ".ucp" (fun path ->
          Instance.write_file path m;
          Instance.parse_file path)
    in
    (* raised guards admit the whole input, so the implicit ZDD phase
       is skipped and the explicit worklist engine takes it directly *)
    let config =
      {
        Scg.Config.default with
        Scg.Config.max_rows_implicit = 200_000;
        max_cols_implicit = 200_000;
      }
    in
    let res = Scg.solve ~config m in
    Alcotest.(check int) "solved to certificate" opt res.Scg.cost;
    Alcotest.(check bool) "proven optimal" true res.Scg.proven_optimal
  end

(* ------------------------------------------------------------------ *)
(* routing: the espresso and KISS/binate fronts                        *)
(* ------------------------------------------------------------------ *)

let test_espresso_route () =
  let spec =
    Benchsuite.Plagen.random_pla ~name:"scale-route-pla" ~ni:10 ~terms:80 ~dc_terms:10
  in
  let r =
    Espresso.minimise ~mode:Espresso.Normal ~on:spec.Benchsuite.Plagen.on
      ~dc:spec.Benchsuite.Plagen.dc ()
  in
  Alcotest.(check int) "products" 45 r.Espresso.cost;
  Alcotest.(check bool) "no more products than the ON-set" true
    (r.Espresso.cost <= Logic.Cover.size spec.Benchsuite.Plagen.on)

(* A 512-state machine whose states fall into 64 behaviour classes of 8
   (index mod 64, encoded in the 6 output bits).  Input 0 steps to s + 1
   and input 1 to s + 64, both mod 512; only because 64 divides 512 does
   the wraparound keep the class structure, so the minimiser has real
   merging to find, while classes that small keep the compatible
   enumeration polynomially bounded (64 · 2^8 sets). *)
let test_kiss_route () =
  if not big_enabled then () else begin
    let states = 512 and classes = 64 in
    let out s =
      String.init 6 (fun b -> if (s mod classes) land (1 lsl b) <> 0 then '1' else '0')
    in
    let buf = Buffer.create (1 lsl 16) in
    Buffer.add_string buf ".i 1\n.o 6\n.r s0\n";
    for s = 0 to states - 1 do
      Printf.bprintf buf "0 s%d s%d %s\n" s ((s + 1) mod states) (out s);
      Printf.bprintf buf "1 s%d s%d %s\n" s ((s + classes) mod states) (out s)
    done;
    Buffer.add_string buf ".e\n";
    let r =
      Fsm.Minimise.minimise
        ~budget:(Scg.Budget.create ~steps:2_000 ())
        ~max_nodes:50_000
        (Fsm.Kiss.parse (Buffer.contents buf))
    in
    Alcotest.(check int) "states before" states r.Fsm.Minimise.original_states;
    Alcotest.(check int) "states after" classes r.Fsm.Minimise.minimised_states
  end

let () =
  Alcotest.run "scale"
    [
      ( "planted",
        [
          Alcotest.test_case "certificates hold" `Quick test_planted_certificates;
          Alcotest.test_case "parameter validation" `Quick test_planted_validation;
          Alcotest.test_case "through both formats" `Quick
            test_planted_through_formats;
        ] );
      ( "generators",
        [
          Alcotest.test_case "family round-trips" `Quick test_family_roundtrips;
          Alcotest.test_case "deterministic by name" `Quick test_determinism;
        ] );
      ( "registry",
        [
          Alcotest.test_case "streaming/legacy equivalence" `Slow
            test_registry_equivalence;
        ] );
      ( "memory",
        [
          Alcotest.test_case "counting fold is bounded" `Quick test_fold_memory;
          Alcotest.test_case "100 MB file (UCP_SCALE_BIG)" `Slow
            test_big_fold_memory;
          Alcotest.test_case "10^5-column solve (UCP_SCALE_BIG)" `Slow
            test_big_planted_solve;
        ] );
      ( "routing",
        [
          Alcotest.test_case "espresso" `Quick test_espresso_route;
          Alcotest.test_case "512-state KISS (UCP_SCALE_BIG)" `Slow test_kiss_route;
        ] );
    ]
