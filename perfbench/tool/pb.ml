(* pb — helper process of the end-to-end solve benchmark (../run.py).

   Subcommands:
     gen WORKLOAD SEED DIR        write the seeded input files of one
                                  workload plus DIR/manifest.json
     solve KIND FILE STEPS [-t]   one cold solve, answer printed the way
                                  ucp_solve prints it, then one
                                  "PB-STATS <json>" line; -t hands the
                                  solve an active Telemetry collector
     replay KIND FILE STEPS       time each layer's public entry points
                                  in pipeline order; one JSON line of
                                  spans and counts
     check-pla LIST               verify two-level answers (one
                                  "KIND<TAB>PLA<TAB>ANSWER" per line)

   KIND is ucp, orlib, pla, pla-multi or pla-implicit; STEPS is the
   subgradient-step budget (0 = none).  Every input is generated from
   names derived from the seed through the library's own seeded families
   (Benchsuite.Randucp / Plagen), so the same (workload, seed) always
   yields byte-identical files. *)

module J = Telemetry.Json
module M = Covering.Matrix
module FL = Covering.From_logic

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("pb: " ^ s); exit 2) fmt
let now = Budget.Clock.now

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

type kind = Ucp | Orlib | Pla | Pla_multi | Pla_implicit

let string_of_kind = function
  | Ucp -> "ucp"
  | Orlib -> "orlib"
  | Pla -> "pla"
  | Pla_multi -> "pla-multi"
  | Pla_implicit -> "pla-implicit"

let kind_of_string = function
  | "ucp" -> Ucp
  | "orlib" -> Orlib
  | "pla" -> Pla
  | "pla-multi" -> Pla_multi
  | "pla-implicit" -> Pla_implicit
  | s -> fail "unknown input kind %S" s

type input = {
  file : string;  (** file name inside the work directory *)
  kind : kind;
  family : string;
  certificate : int option;  (** exact optimum, where the family proves it *)
  max_steps : int option;  (** subgradient-step budget of the solve *)
}

(* the one step budget of every large-sparse solve *)
let large_sparse_steps = 400

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let write_file path s = with_out path (fun oc -> output_string oc s)

let matrix_input ~dir ~kind ?certificate ?max_steps ~family name m =
  let file = name ^ if kind = Ucp then ".ucp" else ".scp" in
  with_out (Filename.concat dir file) (fun oc ->
      if kind = Ucp then Covering.Instance.output_ucp oc m
      else Covering.Instance.output_orlib oc m);
  { file; kind; family; certificate; max_steps }

let pla_input ~dir ~kind ~family name pla =
  let file = name ^ ".pla" in
  write_file (Filename.concat dir file) (Logic.Pla.to_string pla);
  { file; kind; family; certificate = None; max_steps = None }

let spec_pla (s : Benchsuite.Plagen.spec) =
  Logic.Pla.single_output ~ni:s.Benchsuite.Plagen.ni ~on:s.on ~dc:s.dc

(* a multi-output PLA in the shape of the registry's mpla-* instances *)
let random_multi_pla ~name ~ni ~no ~terms =
  let rng = Benchsuite.Rng.of_string name in
  let plane n pick = String.init n (fun _ -> pick (Benchsuite.Rng.int rng 12)) in
  let row () =
    plane ni (fun r -> if r < 4 then '0' else if r < 8 then '1' else '-')
    ^ " "
    ^ plane no (fun r -> if r < 6 then '1' else if r < 9 then '0' else '-')
  in
  let body = String.concat "\n" (List.init terms (fun _ -> row ())) in
  Logic.Pla.parse (Printf.sprintf ".i %d\n.o %d\n.type fd\n%s\n.e\n" ni no body)

(* Each workload is a fixed ladder of shapes; the seed only enters the
   instance names, which seed the generators.  [copies] distinct
   instances are drawn per shape: many small instances rather than a few
   large ones, so that the latency quantiles of one run do not hang on
   how hard a handful of draws happen to be. *)
let ladder ~seed ~copies prefix shapes make =
  List.concat_map
    (fun c ->
      List.mapi
        (fun i shape -> make (Printf.sprintf "%s-s%d-%d-%02d" prefix seed c i) shape)
        shapes)
    (List.init copies Fun.id)

let cyclic_cores ~seed ~dir =
  let ladder prefix = ladder ~seed ~copies:22 prefix in
  let ucp family name m = matrix_input ~dir ~kind:Ucp ~family name m in
  ladder "cc-cyclic"
    [ (35, 24, 3); (38, 26, 3); (35, 21, 4) ]
    (fun name (n_rows, n_cols, k) ->
      ucp "cyclic" name (Benchsuite.Randucp.cyclic ~name ~n_rows ~n_cols ~k ()))
  @ ladder "cc-dense" [ (40, 30, 0.25) ] (fun name (n_rows, n_cols, density) ->
        ucp "dense" name
          (Benchsuite.Randucp.dense_cyclic ~name ~n_rows ~n_cols ~density ()))
  @ ladder "cc-multi"
      [ (2, 30, 20); (3, 25, 18) ]
      (fun name (parts, rows_per_part, cols_per_part) ->
        ucp "multi" name
          (Benchsuite.Randucp.multi_component ~name ~parts ~rows_per_part
             ~cols_per_part ()))

let large_sparse ~seed ~dir =
  let ladder prefix = ladder ~seed ~copies:18 prefix in
  let orlib ?certificate family name m =
    matrix_input ~dir ~kind:Orlib ?certificate ~max_steps:large_sparse_steps ~family
      name m
  in
  ladder "ls-planted"
    [ (220, 6, 3, 0); (180, 8, 3, 60) ]
    (fun name (blocks, rows_per_block, decoys_per_block, cross) ->
      let m, certificate =
        Benchsuite.Randucp.planted ~name ~blocks ~rows_per_block ~decoys_per_block
          ~cross ()
      in
      orlib ~certificate "planted" name m)
  @ ladder "ls-reducible" [ (600, 300) ] (fun name (n_rows, n_cols) ->
        orlib "reducible" name (Benchsuite.Randucp.reducible ~name ~n_rows ~n_cols ()))
  @ ladder "ls-beasley" [ (60, 800) ] (fun name (n_rows, n_cols) ->
        orlib "beasley" name
          (Benchsuite.Randucp.beasley ~name ~n_rows ~n_cols ~rows_per_col:4 ()))
  @ ladder "ls-powerlaw" [ (200, 800) ] (fun name (n_rows, n_cols) ->
        orlib "powerlaw" name (Benchsuite.Randucp.powerlaw ~name ~n_rows ~n_cols ()))
  @ ladder "ls-multi" [ (16, 40, 30) ] (fun name (parts, rows_per_part, cols_per_part) ->
        orlib "multi" name
          (Benchsuite.Randucp.multi_component ~name ~parts ~rows_per_part
             ~cols_per_part ~cost_spread:4 ()))

let two_level ~seed ~dir =
  let ladder prefix = ladder ~seed ~copies:22 prefix in
  let random kind family (ni, terms, dc_terms) name =
    pla_input ~dir ~kind ~family name
      (spec_pla (Benchsuite.Plagen.random_pla ~name ~ni ~terms ~dc_terms))
  in
  ladder "tl-random" [ (11, 45, 9); (11, 50, 10) ] (fun name shape ->
      random Pla "random" shape name)
  (* adjacent middle counts give real cyclic cores; a symmetric function
     is fixed by its input count and counts, so these six are the same
     for every seed *)
  @ List.map
      (fun (ni, counts) ->
        let name =
          Printf.sprintf "tl-symmetric-%d-%s" ni
            (String.concat "" (List.map string_of_int counts))
        in
        pla_input ~dir ~kind:Pla ~family:"symmetric" name
          (spec_pla (Benchsuite.Plagen.symmetric ~name ~ni ~counts)))
      [ (8, [ 2; 3 ]); (8, [ 3; 4 ]); (8, [ 2; 3; 4 ]); (9, [ 2; 3 ]); (9, [ 3; 4 ]);
        (9, [ 2; 3; 4 ]) ]
  @ ladder "tl-multi" [ (10, 5, 30); (11, 4, 28) ] (fun name (ni, no, terms) ->
        pla_input ~dir ~kind:Pla_multi ~family:"multi" name
          (random_multi_pla ~name ~ni ~no ~terms))
  @ ladder "tl-implicit" [ (10, 32, 7) ] (fun name shape ->
        random Pla_implicit "implicit" shape name)

let workloads =
  [ ("cyclic-cores", cyclic_cores); ("large-sparse", large_sparse); ("two-level", two_level) ]

let gen workload seed dir =
  let build =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> fail "unknown workload %S" workload
  in
  let opt = function None -> J.Null | Some v -> J.Int v in
  let entry i =
    J.Obj
      [
        ("file", J.String i.file);
        ("kind", J.String (string_of_kind i.kind));
        ("family", J.String i.family);
        ("certificate", opt i.certificate);
        ("max_steps", opt i.max_steps);
      ]
  in
  (* a seeded order, so that the partial last pass of a timed run is an
     unbiased sample of the inputs *)
  let inputs = Array.of_list (build ~seed ~dir) in
  Benchsuite.Rng.shuffle
    (Benchsuite.Rng.of_string (Printf.sprintf "perfbench.%s.%d" workload seed))
    inputs;
  write_file (Filename.concat dir "manifest.json")
    (J.to_string
       (J.Obj
          [
            ("workload", J.String workload);
            ("seed", J.Int seed);
            ("inputs", J.List (List.map entry (Array.to_list inputs)));
          ]))

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

(* a parsed input: a plain matrix, or a PLA with the covering problem its
   kind builds from it *)
type bridge =
  | Single of FL.t
  | Multi of FL.multi
  | Implicit of FL.implicit_bridge

let parse kind path =
  match kind with
  | Ucp -> `Matrix (Covering.Instance.parse_file path)
  | Orlib -> `Matrix (Covering.Instance.parse_orlib_file path)
  | Pla | Pla_multi | Pla_implicit -> `Pla (Logic.Pla.parse_file path)

let build kind pla =
  match kind with
  | Pla_multi -> Multi (FL.build_multi pla)
  | Pla_implicit ->
    Implicit
      (FL.build_implicit ~on:(Logic.Pla.onset pla 0) ~dc:(Logic.Pla.dcset pla 0) ())
  | Ucp | Orlib | Pla -> Single (FL.build_pla pla ~output:0)

let matrix_of = function
  | Single b -> b.FL.matrix
  | Multi b -> b.FL.mmatrix
  | Implicit b -> b.FL.imatrix

let budget_of steps = if steps > 0 then Budget.create ~steps () else Budget.create ()

(* ------------------------------------------------------------------ *)
(* solve                                                              *)
(* ------------------------------------------------------------------ *)

let qualifier (r : Scg.result) =
  match r.Scg.status with
  | Scg.Optimal -> " (proven optimal)"
  | Scg.Feasible -> ""
  | Scg.Feasible_budget_exhausted _ -> " (budget exhausted)"

(* the answer, in ucp_solve's words *)
let print_answer pla bridge (r : Scg.result) =
  let header what =
    Printf.printf "scg: %s, lower bound %d%s\n" what r.Scg.lower_bound (qualifier r)
  in
  let cover primes =
    header (Printf.sprintf "%d products" r.Scg.cost);
    print_endline "cover:";
    List.iter (fun j -> print_endline (Logic.Cube.to_string primes.(j))) r.Scg.solution
  in
  match bridge with
  | None ->
    header (Printf.sprintf "cost %d" r.Scg.cost);
    print_endline
      ("columns: " ^ String.concat " " (List.map string_of_int r.Scg.solution))
  | Some (Single b) -> cover b.FL.primes
  | Some (Implicit b) -> cover b.FL.iprimes
  | Some (Multi b) ->
    Printf.printf "scg (shared products): %d rows, lower bound %d%s\n%s" r.Scg.cost
      r.Scg.lower_bound (qualifier r)
      (Logic.Pla.to_string (FL.pla_of_multi_solution (Option.get pla) b r.Scg.solution))

let solve kind path steps traced =
  let t0 = now () in
  let lines = ref 0 in
  let telemetry =
    if traced then Telemetry.create ~trace:(fun _ -> incr lines) () else Telemetry.null
  in
  let budget = budget_of steps in
  let parsed = parse kind path in
  (* the public entry point of each input kind, timed whole: for PLAs
     that includes building the covering matrix *)
  let t_solve = now () in
  let pla, bridge, r =
    match parsed with
    | `Matrix m -> (None, None, Scg.solve ~budget ~telemetry m)
    | `Pla pla -> (
      match kind with
      | Pla_multi ->
        let r, b = Scg.solve_pla_multi ~budget ~telemetry pla in
        (Some pla, Some (Multi b), r)
      | Pla_implicit ->
        let r, b =
          Scg.solve_logic_implicit ~budget ~telemetry ~on:(Logic.Pla.onset pla 0)
            ~dc:(Logic.Pla.dcset pla 0) ()
        in
        (Some pla, Some (Implicit b), r)
      | Ucp | Orlib | Pla ->
        let r, b = Scg.solve_pla ~budget ~telemetry pla ~output:0 in
        (Some pla, Some (Single b), r))
  in
  let solve_s = now () -. t_solve in
  Telemetry.close telemetry;
  let live_after = Zdd.node_count () in
  print_answer pla bridge r;
  let gc = Gc.quick_stat () in
  let spans =
    List.map
      (fun (s : Telemetry.span) ->
        J.List [ J.String s.Telemetry.name; J.Float s.start; J.Float s.stop; J.Int s.depth ])
      (Telemetry.spans telemetry)
  in
  print_endline
    ("PB-STATS "
    ^ J.to_string
        (J.Obj
           [
             ("solve_s", J.Float solve_s);
             ("process_s", J.Float (now () -. t0));
             ("stats", Scg.Stats.to_json r.Scg.stats);
             ("spans", J.List spans);
             ("trace_lines", J.Int !lines);
             ("zdd_live_nodes_after", J.Int live_after);
             ("gc_minor_words", J.Float gc.Gc.minor_words);
             ("gc_major_collections", J.Int gc.Gc.major_collections);
             ("gc_top_heap_words", J.Int gc.Gc.top_heap_words);
           ]));
  if Budget.tripped budget <> None then exit 3

(* ------------------------------------------------------------------ *)
(* replay                                                             *)
(* ------------------------------------------------------------------ *)

(* Spans of the replay process: kept in memory, written once at the end.
   Times are seconds since the process's first span. *)
type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 1
let epoch = now ()

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let start = now () -. epoch in
  Fun.protect
    ~finally:(fun () ->
      stack := List.tl !stack;
      spans := { id; parent; name; start; stop = now () -. epoch } :: !spans)
    f

let counts : (string * float) list ref = ref []
let count name v = counts := (name, v) :: !counts

(* call [f] repeatedly — at least [min_calls] times and until [min_s]
   seconds have passed, at most [max_calls] — under one span; returns the
   call count and the minor words allocated per call *)
let repeat name ?(min_calls = 5) ?(min_s = 0.002) ?(max_calls = 200) f =
  let w0 = Gc.minor_words () in
  let calls =
    span name (fun () ->
        let t0 = now () and n = ref 0 in
        while !n < min_calls || (now () -. t0 < min_s && !n < max_calls) do
          ignore (Sys.opaque_identity (f ()));
          incr n
        done;
        !n)
  in
  (calls, (Gc.minor_words () -. w0) /. float_of_int calls)

(* per-component kernels at the root of the first descent, called the
   way [Scg.solve] calls them *)
let replay_component ~(config : Scg.Config.t) ~budget sub =
  let dense () = Covering.Dense.attach ~threshold:config.dense_threshold sub in
  let g = span "greedy.solve_best" (fun () -> Covering.Greedy.solve_best ?dense:(dense ()) sub) in
  let z_greedy = M.cost_of sub g in
  ignore (span "dual_ascent.run" (fun () -> Lagrangian.Dual_ascent.run ~budget sub));
  let w0 = Gc.minor_words () in
  let sg =
    span "subgradient.run" (fun () ->
        Lagrangian.Subgradient.run ~budget ~config:config.subgradient
          ~dense_threshold:config.dense_threshold ~ub:z_greedy sub)
  in
  count "subgradient.steps" (float_of_int sg.Lagrangian.Subgradient.steps);
  count "subgradient.minor_words" (Gc.minor_words () -. w0);
  let lambda = sg.Lagrangian.Subgradient.lambda in
  let rc = sg.Lagrangian.Subgradient.reduced_costs in
  let d = dense () in
  let calls, words =
    repeat "relax.evaluate" (fun () -> Lagrangian.Relax.evaluate ?dense:d sub lambda)
  in
  count "relax.calls" (float_of_int calls);
  count "relax.nnz" (float_of_int (calls * M.nnz sub));
  count "relax.minor_words" (words *. float_of_int calls);
  let calls, words =
    repeat "lag_greedy.run" (fun () ->
        Lagrangian.Lag_greedy.run ?dense:d sub ~reduced_costs:rc)
  in
  count "lag_greedy.calls" (float_of_int calls);
  count "lag_greedy.minor_words" (words *. float_of_int calls);
  let calls, _ =
    repeat "penalties.dual" ~min_calls:3 ~max_calls:20 (fun () ->
        Lagrangian.Penalties.dual ~max_cols:config.dual_pen_max_cols sub
          ~z_best:z_greedy)
  in
  count "penalties.calls" (float_of_int calls)

let replay kind path steps =
  let config = Scg.Config.default in
  let budget = budget_of steps in
  count "input.bytes" (float_of_int (Unix.stat path).Unix.st_size);
  let parsed = span "instance.parse" (fun () -> parse kind path) in
  let m =
    match parsed with
    | `Matrix m -> m
    | `Pla pla ->
      let b = span "from_logic.build" (fun () -> build kind pla) in
      let m = matrix_of b in
      count "from_logic.primes" (float_of_int (M.n_cols m));
      m
  in
  count "input.rows" (float_of_int (M.n_rows m));
  (* the manager tunables and the implicit phase exactly as [Scg.solve]
     applies them under the default configuration, whose guards never
     skip the phase *)
  Zdd.configure ~initial_size:config.zdd_initial_size
    ~gc_threshold:config.zdd_gc_threshold ~chain_reduction:config.zdd_chain_reduction ();
  Bdd.configure ~initial_size:config.zdd_initial_size ();
  let decoded =
    span "implicit" (fun () ->
        let imp = span "implicit.of_matrix" (fun () -> Covering.Implicit.of_matrix m) in
        let imp =
          span "implicit.reduce" (fun () ->
              Covering.Implicit.reduce ~budget ~max_rows:config.max_rows_implicit
                ~max_cols:config.max_cols_implicit imp)
        in
        count "implicit.rows_left" (Covering.Implicit.row_count imp);
        fst (span "implicit.decode" (fun () -> Covering.Implicit.decode imp)))
  in
  count "zdd.peak_nodes" (float_of_int (Zdd.peak_node_count ()));
  let red =
    span "reduce2.cyclic_core" (fun () ->
        Covering.Reduce2.cyclic_core ~budget ~gimpel:config.use_gimpel
          ~dense_threshold:config.dense_threshold decoded)
  in
  let core = red.Covering.Reduce.core in
  count "reduce2.core_nnz" (float_of_int (M.nnz core));
  let components =
    if M.is_empty core then [] else span "partition.split" (fun () -> Covering.Partition.split core)
  in
  count "partition.components" (float_of_int (List.length components));
  List.iter (replay_component ~config ~budget) components;
  let sum = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace sum k (v +. Option.value ~default:0. (Hashtbl.find_opt sum k)))
    !counts;
  let json_span s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("parent", J.Int s.parent);
        ("name", J.String s.name);
        ("start", J.Float s.start);
        ("end", J.Float s.stop);
      ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("spans", J.List (List.rev_map json_span !spans));
            ( "counts",
              J.Obj
                (List.sort compare
                   (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) sum [])) );
          ]))

(* ------------------------------------------------------------------ *)
(* check-pla                                                          *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the reported cost and the cube lines after the header line *)
let split_answer text =
  match String.split_on_char '\n' text with
  | header :: rest ->
    let number prefix =
      Scanf.sscanf_opt header (prefix ^^ " %d %_s lower bound %d") (fun c lb -> (c, lb))
    in
    let cost_lb =
      match number "scg:" with Some x -> Some x | None -> number "scg (shared products):"
    in
    (cost_lb, List.filter (fun l -> l <> "" && l <> "cover:") rest)
  | [] -> (None, [])

let index_of_primes primes key =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun j p -> Hashtbl.replace tbl (key p) j) primes;
  tbl

(* Some (cost, lb) of a valid answer; Error why otherwise *)
let check_pla kind pla_path answer_path =
  let kind = kind_of_string kind in
  let pla = Logic.Pla.parse_file pla_path in
  match split_answer (read_file answer_path) with
  | None, _ -> Error "no cost line"
  | Some (cost, lb), body -> (
    let lookup tbl key =
      match Hashtbl.find_opt tbl key with
      | Some j -> Ok j
      | None -> Error (Printf.sprintf "%S is not a prime" key)
    in
    let rec all = function
      | [] -> Ok []
      | Error e :: _ -> Error e
      | Ok j :: rest -> Result.map (fun js -> j :: js) (all rest)
    in
    let verdict ok js =
      let js = List.sort_uniq compare js in
      if not ok then Error "cover does not implement the function"
      else if List.length js <> cost then Error "reported cost differs from the cover"
      else if lb > cost then Error "lower bound above cost"
      else Ok (cost, lb)
    in
    match build kind pla with
    | Single b ->
      let tbl = index_of_primes b.FL.primes Logic.Cube.to_string in
      Result.bind (all (List.map (lookup tbl) body)) (fun js ->
          verdict (FL.verify_solution b js) js)
    | Implicit b ->
      let tbl = index_of_primes b.FL.iprimes Logic.Cube.to_string in
      Result.bind (all (List.map (lookup tbl) body)) (fun js ->
          verdict (FL.verify_implicit b js) js)
    | Multi b ->
      let tbl =
        index_of_primes b.FL.mprimes (fun (p : Logic.Multi.prime) ->
            Logic.Cube.to_string p.Logic.Multi.cube
            ^ " "
            ^ String.init pla.Logic.Pla.no (fun k ->
                  if List.mem k p.Logic.Multi.outputs then '1' else '0'))
      in
      let out = Logic.Pla.parse (String.concat "\n" body) in
      let keys =
        List.map (fun (c, o) -> Logic.Cube.to_string c ^ " " ^ o) out.Logic.Pla.rows
      in
      Result.bind (all (List.map (lookup tbl) keys)) (fun js ->
          verdict (FL.verify_multi b js) js))

let check_list list_path =
  In_channel.with_open_text list_path In_channel.input_lines
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ kind; pla; answer ] ->
           let verdict =
             match check_pla kind pla answer with
             | Ok (cost, lb) -> Printf.sprintf "ok\t%d\t%d" cost lb
             | Error why -> "fail\t" ^ why
             | exception e -> "fail\t" ^ Printexc.to_string e
           in
           print_endline verdict
         | _ -> fail "malformed check line %S" line)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | [ "solve"; kind; path; steps ] -> solve (kind_of_string kind) path (int_of_string steps) false
  | [ "solve"; kind; path; steps; "-t" ] ->
    solve (kind_of_string kind) path (int_of_string steps) true
  | [ "replay"; kind; path; steps ] -> replay (kind_of_string kind) path (int_of_string steps)
  | [ "check-pla"; list ] -> check_list list
  | _ ->
    prerr_endline
      "usage: pb gen WORKLOAD SEED DIR | pb solve KIND FILE STEPS [-t] | pb replay KIND \
       FILE STEPS | pb check-pla LIST";
    exit 2
