type category =
  | Easy
  | Difficult
  | Dense_cyclic
  | Challenging
  | Scale

type problem =
  | Raw of Covering.Matrix.t
  | Two_level of Plagen.spec
  | Multi_level of Logic.Pla.t

type instance = {
  name : string;
  category : category;
  problem : problem Lazy.t;
}

let string_of_category = function
  | Easy -> "easy cyclic"
  | Difficult -> "difficult cyclic"
  | Dense_cyclic -> "dense cyclic"
  | Challenging -> "challenging"
  | Scale -> "scale"

let raw name category build = { name; category; problem = lazy (Raw (build ())) }

let two_level name category build =
  { name; category; problem = lazy (Two_level (build ())) }

let multi_level name category build =
  { name; category; problem = lazy (Multi_level (build ())) }

(* Seeded random multi-output PLAs: the suite's nod to the fact that the
   Berkeley instances are multi-output (1-109 outputs). *)
let random_multi_pla ~name ~ni ~no ~terms =
  let rng = Rng.of_string name in
  let row () =
    let input =
      String.init ni (fun _ ->
          match Rng.int rng 3 with 0 -> '0' | 1 -> '1' | _ -> '-')
    in
    let output =
      String.init no (fun _ ->
          match Rng.int rng 4 with 0 | 1 -> '1' | 2 -> '0' | _ -> '-')
    in
    input ^ " " ^ output
  in
  let body = String.concat "\n" (List.init terms (fun _ -> row ())) in
  Logic.Pla.parse (Printf.sprintf ".i %d\n.o %d\n.type fd\n%s\n.e\n" ni no body)

(* ------------------------------------------------------------------ *)
(* Easy cyclic: 49 instances                                          *)
(* ------------------------------------------------------------------ *)

let easy_two_level =
  [
    two_level "parity4" Easy (fun () -> Plagen.parity ~ni:4);
    two_level "parity5" Easy (fun () -> Plagen.parity ~ni:5);
    two_level "parity6" Easy (fun () -> Plagen.parity ~ni:6);
    two_level "maj5" Easy (fun () -> Plagen.majority ~ni:5);
    two_level "maj7" Easy (fun () -> Plagen.majority ~ni:7);
    two_level "sym6-234" Easy (fun () ->
        Plagen.symmetric ~name:"sym6-234" ~ni:6 ~counts:[ 2; 3; 4 ]);
    two_level "sym7-135" Easy (fun () ->
        Plagen.symmetric ~name:"sym7-135" ~ni:7 ~counts:[ 1; 3; 5 ]);
    two_level "sym8-ge5" Easy (fun () ->
        Plagen.symmetric ~name:"sym8-ge5" ~ni:8 ~counts:[ 5; 6; 7; 8 ]);
    two_level "add2" Easy (fun () -> Plagen.adder_msb ~bits:2);
    two_level "add3" Easy (fun () -> Plagen.adder_msb ~bits:3);
    two_level "mux4" Easy (fun () -> Plagen.mux ~select:2);
    two_level "mux8" Easy (fun () -> Plagen.mux ~select:3);
  ]
  @ List.concat_map
      (fun (ni, terms, dc_terms) ->
        let name = Printf.sprintf "rpla-%d-%d" ni terms in
        [
          two_level name Easy (fun () -> Plagen.random_pla ~name ~ni ~terms ~dc_terms);
        ])
      [
        (5, 6, 2); (5, 9, 0); (6, 8, 3); (6, 12, 2); (7, 10, 4);
        (7, 14, 0); (8, 12, 5); (8, 18, 3); (9, 16, 6); (9, 24, 0);
      ]
  @ [
      two_level "rpla-dc30" Easy (fun () ->
          Plagen.with_random_dc ~percent:30
            (Plagen.random_pla ~name:"rpla-dc30" ~ni:6 ~terms:8 ~dc_terms:0));
      two_level "rpla-dc60" Easy (fun () ->
          Plagen.with_random_dc ~percent:60
            (Plagen.random_pla ~name:"rpla-dc60" ~ni:7 ~terms:10 ~dc_terms:0));
    ]

let easy_multi =
  [
    multi_level "mpla-5x3" Easy (fun () ->
        random_multi_pla ~name:"mpla-5x3" ~ni:5 ~no:3 ~terms:8);
    multi_level "mpla-6x2" Easy (fun () ->
        random_multi_pla ~name:"mpla-6x2" ~ni:6 ~no:2 ~terms:10);
    multi_level "mpla-6x4" Easy (fun () ->
        random_multi_pla ~name:"mpla-6x4" ~ni:6 ~no:4 ~terms:9);
  ]

let easy_raw =
  List.init 22 (fun k ->
      let name = Printf.sprintf "ucp-easy%02d" (k + 1) in
      let n_rows = 20 + (8 * k) and n_cols = 12 + (4 * k) in
      raw name Easy (fun () -> Randucp.reducible ~name ~n_rows ~n_cols ()))

let easy_instances = easy_two_level @ easy_multi @ easy_raw

(* ------------------------------------------------------------------ *)
(* Difficult cyclic: the 7 instances of Tables 1 and 3                *)
(* ------------------------------------------------------------------ *)

let cyc name category ~n_rows ~n_cols ~k =
  raw name category (fun () -> Randucp.cyclic ~name ~n_rows ~n_cols ~k ())

let difficult_instances =
  [
    cyc "bench1" Difficult ~n_rows:90 ~n_cols:60 ~k:3;
    cyc "ex5" Difficult ~n_rows:140 ~n_cols:80 ~k:3;
    cyc "exam" Difficult ~n_rows:80 ~n_cols:55 ~k:3;
    cyc "max1024" Difficult ~n_rows:150 ~n_cols:90 ~k:3;
    cyc "prom2" Difficult ~n_rows:120 ~n_cols:75 ~k:3;
    cyc "t1" Difficult ~n_rows:40 ~n_cols:30 ~k:3;
    cyc "test4" Difficult ~n_rows:170 ~n_cols:100 ~k:3;
  ]

(* ------------------------------------------------------------------ *)
(* Dense cyclic: 5 instances for the bit-slice kernels                *)
(* ------------------------------------------------------------------ *)

(* The Berkeley-style instances above are row-regular with k = 3-4, so
   their dominance tests walk three-element lists and the sparse engine
   is already near-optimal on them.  The cyclic cores the paper's
   heuristic actually grinds on (unate covers of prime tables) are far
   denser; this suite models that regime — every row covers 20-45% of
   the columns — and is where the word-parallel kernels pay. *)
let dense_cyc name ~n_rows ~n_cols ~density ?cost_spread () =
  raw name Dense_cyclic (fun () ->
      Randucp.dense_cyclic ~name ~n_rows ~n_cols ~density ?cost_spread ())

let dense_instances =
  [
    dense_cyc "dense-a" ~n_rows:120 ~n_cols:64 ~density:0.30 ();
    dense_cyc "dense-b" ~n_rows:200 ~n_cols:96 ~density:0.25 ();
    dense_cyc "dense-c" ~n_rows:260 ~n_cols:128 ~density:0.20 ();
    dense_cyc "dense-d" ~n_rows:160 ~n_cols:80 ~density:0.45 ~cost_spread:4 ();
    dense_cyc "dense-e" ~n_rows:320 ~n_cols:150 ~density:0.35 ();
  ]

(* ------------------------------------------------------------------ *)
(* Challenging: the 16 instances of Tables 2 and 4                    *)
(* ------------------------------------------------------------------ *)

let challenging_instances =
  [
    cyc "ex1010" Challenging ~n_rows:260 ~n_cols:120 ~k:3;
    (* instances the paper proves optimal almost instantly: reducible or
       small-cyclic profiles *)
    raw "ex4" Challenging (fun () ->
        Randucp.reducible ~name:"ex4" ~n_rows:160 ~n_cols:90 ());
    raw "ibm" Challenging (fun () ->
        Randucp.reducible ~name:"ibm" ~n_rows:200 ~n_cols:110 ());
    raw "jbp" Challenging (fun () ->
        Randucp.reducible ~name:"jbp" ~n_rows:140 ~n_cols:85 ());
    cyc "misg" Challenging ~n_rows:30 ~n_cols:24 ~k:3;
    cyc "mish" Challenging ~n_rows:34 ~n_cols:26 ~k:3;
    cyc "misj" Challenging ~n_rows:22 ~n_cols:18 ~k:3;
    raw "pdc" Challenging (fun () -> Steiner.matrix 27);
    raw "shift" Challenging (fun () ->
        Randucp.reducible ~name:"shift" ~n_rows:120 ~n_cols:70 ());
    cyc "soar.pla" Challenging ~n_rows:200 ~n_cols:110 ~k:3;
    cyc "test2" Challenging ~n_rows:420 ~n_cols:180 ~k:4;
    raw "test3" Challenging (fun () -> Steiner.matrix 45);
    raw "ti" Challenging (fun () ->
        Randucp.reducible ~name:"ti" ~n_rows:180 ~n_cols:100 ());
    cyc "ts10" Challenging ~n_rows:44 ~n_cols:32 ~k:3;
    cyc "x2dn" Challenging ~n_rows:50 ~n_cols:36 ~k:3;
    raw "xparc" Challenging (fun () ->
        Randucp.reducible ~name:"xparc" ~n_rows:220 ~n_cols:120 ());
  ]

(* ------------------------------------------------------------------ *)
(* Scale: 5 adversarial large instances for the streaming path and the
   component split *)
(* ------------------------------------------------------------------ *)

(* Each instance stresses one subsystem at a size where asymptotics, not
   constants, decide the outcome: the two planted instances carry exact
   cost certificates (OPT = 2*blocks by construction, see Randucp), so
   the heuristic's answer can be checked against ground truth at sizes
   no exact solver confirms in CI time.  Sizes are chosen so the whole
   tier builds and solves in seconds; `ucp_gen --family` produces
   arbitrarily larger siblings of each. *)
let scale_instances =
  [
    raw "scale-planted-s" Scale (fun () ->
        fst
          (Randucp.planted ~name:"scale-planted-s" ~blocks:400 ~rows_per_block:6
             ~decoys_per_block:3 ()));
    raw "scale-planted-x" Scale (fun () ->
        fst
          (Randucp.planted ~name:"scale-planted-x" ~blocks:150 ~rows_per_block:8
             ~decoys_per_block:4 ~cross:30 ()));
    raw "scale-powerlaw" Scale (fun () ->
        Randucp.powerlaw ~name:"scale-powerlaw" ~n_rows:1500 ~n_cols:6000 ());
    raw "scale-beasley-wide" Scale (fun () ->
        Randucp.beasley ~name:"scale-beasley-wide" ~n_rows:400 ~n_cols:8000
          ~rows_per_col:6 ());
    raw "scale-multi-8" Scale (fun () ->
        Randucp.multi_component ~name:"scale-multi-8" ~parts:8 ~rows_per_part:60
          ~cols_per_part:45 ~cost_spread:4 ());
  ]

(* ------------------------------------------------------------------ *)

let all () =
  easy_instances @ difficult_instances @ dense_instances @ challenging_instances
  @ scale_instances

let easy () = easy_instances
let difficult () = difficult_instances
let dense () = dense_instances
let challenging () = challenging_instances
let scale () = scale_instances

let find name =
  match List.find_opt (fun i -> i.name = name) (all ()) with
  | Some i -> i
  | None -> raise Not_found

let matrix i =
  match Lazy.force i.problem with
  | Raw m -> m
  | Two_level spec ->
    (Covering.From_logic.build ~on:spec.Plagen.on ~dc:spec.Plagen.dc ()).Covering.From_logic.matrix
  | Multi_level pla -> (Covering.From_logic.build_multi pla).Covering.From_logic.mmatrix
