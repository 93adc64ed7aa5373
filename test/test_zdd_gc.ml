(* The ZDD manager lifecycle: generational mark-and-sweep, cache
   invalidation on collection, and the chain fast paths.

   The load-bearing properties: (1) collection never changes any solver
   answer — differential runs with GC forced at a tiny threshold, GC
   off, and chain reduction toggled must be bit-identical; (2) rooted
   families survive collection with canonicity intact (rebuilding an
   identical family yields the physically equal node).

   Solver-level differentials run in fresh spawned domains: a child
   domain gets a pristine manager, so node counts and collection
   schedules are deterministic regardless of what earlier tests did to
   this domain's table. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let restore_defaults () =
  Zdd.configure ~initial_size:Zdd.default_initial_size
    ~gc_threshold:Zdd.default_gc_threshold ~chain_reduction:true ()

let with_config ?initial_size ?gc_threshold ?chain_reduction f =
  Zdd.configure ?initial_size ?gc_threshold ?chain_reduction ();
  Fun.protect ~finally:restore_defaults f

(* a family with internal sharing, plus garbage from intermediate ops *)
let build_family seed =
  let sets =
    List.init 24 (fun i ->
        List.init (3 + ((seed + i) mod 4)) (fun j -> (seed + (i * j)) mod 17))
  in
  Zdd.of_sets sets

(* ------------------------------------------------------------------ *)
(* collection basics                                                   *)
(* ------------------------------------------------------------------ *)

let test_collect_reclaims_garbage () =
  let live = build_family 1 in
  (* garbage: families used once and dropped *)
  for i = 2 to 10 do
    ignore (Zdd.union live (build_family i))
  done;
  let before = Zdd.node_count () in
  let reclaimed = Zdd.Gc.collect ~roots:[ live ] () in
  checkb "reclaimed something" true (reclaimed > 0);
  checki "occupancy dropped by reclaimed" (before - reclaimed) (Zdd.node_count ());
  checkb "live family intact" true (Zdd.count live > 0.)

let test_canonicity_after_collect () =
  let f = build_family 3 in
  let sets = Zdd.to_sets f in
  ignore (Zdd.Gc.collect ~roots:[ f ] ());
  (* rebuilding the same family must produce the physically equal root:
     the survivors stayed in the unique table and the caches were
     invalidated, so no duplicate of a live node can ever be built *)
  let g = Zdd.of_sets sets in
  checkb "canonical after sweep" true (Zdd.equal f g);
  (* operations on survivors still agree with the model *)
  checkb "union idempotent" true (Zdd.equal f (Zdd.union f g));
  checkb "minimal stable" true
    (Zdd.equal (Zdd.minimal f) (Zdd.minimal (Zdd.of_sets sets)));
  (* a sweep that reclaims nothing keeps the operation caches and one
     that reclaims something clears them; after either, repeating an
     operation must return the node a fresh rebuild finds — after the
     second sweep the earlier result is gone, so a stale cache entry
     would hand back a node the rebuild cannot find *)
  let a = build_family 4 and b = build_family 6 in
  let u = Zdd.union a b in
  let m = Zdd.minimal u in
  let m_sets = Zdd.to_sets m in
  let repeat_is_canonical () =
    Zdd.equal (Zdd.minimal (Zdd.union a b)) (Zdd.of_sets m_sets)
  in
  ignore (Zdd.Gc.collect ~roots:[ f; a; b; u; m ] ());
  checki "nothing left to reclaim" 0 (Zdd.Gc.collect ~roots:[ f; a; b; u; m ] ());
  checkb "canonical after a zero-yield sweep" true (repeat_is_canonical ());
  checkb "operation result reclaimed" true (Zdd.Gc.collect ~roots:[ f; a; b ] () > 0);
  checkb "canonical after a reclaiming sweep" true (repeat_is_canonical ())

let test_peak_monotone () =
  let f = build_family 5 in
  let peak_before = Zdd.peak_node_count () in
  ignore (Zdd.Gc.collect ~roots:[ f ] ());
  checkb "nodes <= peak" true (Zdd.node_count () <= Zdd.peak_node_count ());
  checkb "peak survives collection" true (Zdd.peak_node_count () >= peak_before)

(* ------------------------------------------------------------------ *)
(* automatic collection                                                *)
(* ------------------------------------------------------------------ *)

let test_maybe_collect_threshold () =
  with_config ~gc_threshold:256 (fun () ->
      let live = build_family 11 in
      let stats0 = Zdd.Gc.stats () in
      (* below threshold right after a collect: no-op *)
      ignore (Zdd.Gc.collect ~roots:[ live ] ());
      checkb "fresh counter" false (Zdd.Gc.maybe_collect ~roots:[ live ] ());
      (* allocate garbage well past the threshold *)
      for i = 20 to 40 do
        ignore (Zdd.union live (build_family i))
      done;
      checkb "past threshold" true (Zdd.Gc.maybe_collect ~roots:[ live ] ());
      checkb "collections counted" true
        ((Zdd.Gc.stats ()).Zdd.Gc.collections > stats0.Zdd.Gc.collections);
      (* the counter reset: an immediate retry is below threshold again *)
      checkb "counter reset" false (Zdd.Gc.maybe_collect ~roots:[ live ] ()))

let test_gc_disabled () =
  with_config ~gc_threshold:0 (fun () ->
      let live = build_family 13 in
      for i = 50 to 70 do
        ignore (Zdd.union live (build_family i))
      done;
      checkb "threshold 0 never collects" false
        (Zdd.Gc.maybe_collect ~roots:[ live ] ()))

(* ------------------------------------------------------------------ *)
(* row family build                                                    *)
(* ------------------------------------------------------------------ *)

(* the row family is laid out in one pass: in a pristine manager the
   unique table holds exactly the result's nodes afterwards, and never
   held more (no intermediate union was built and dropped) *)
let test_build_allocates_result_only () =
  let open Benchsuite.Randucp in
  List.iter
    (fun (name, mk) ->
      let nodes, peak, size =
        Domain.join
          (Domain.spawn (fun () ->
               let p = Covering.Implicit.of_matrix (mk ()) in
               (Zdd.node_count (), Zdd.peak_node_count (), Zdd.size p.Covering.Implicit.rows)))
      in
      checki (name ^ ": nodes created") size nodes;
      checki (name ^ ": peak") size peak)
    [
      ("reducible", fun () -> reducible ~name:"r" ~n_rows:300 ~n_cols:120 ());
      ("cyclic", fun () -> cyclic ~name:"c" ~n_rows:400 ~n_cols:90 ~k:5 ());
      ( "dense_cyclic",
        fun () -> dense_cyclic ~name:"d" ~n_rows:120 ~n_cols:60 ~density:0.3 () );
      ("beasley", fun () -> beasley ~name:"b" ~n_rows:100 ~n_cols:600 ~rows_per_col:4 ());
      ("vertex_cover", fun () -> vertex_cover ~name:"v" ~n_vertices:80 ~n_edges:300 ());
      ("powerlaw", fun () -> powerlaw ~name:"p" ~n_rows:300 ~n_cols:400 ());
      ( "planted",
        fun () ->
          fst (planted ~name:"pl" ~blocks:60 ~rows_per_block:6 ~decoys_per_block:3 ~cross:10 ()) );
      ( "multi_component",
        fun () -> multi_component ~name:"m" ~parts:4 ~rows_per_part:60 ~cols_per_part:30 () );
    ]

(* ------------------------------------------------------------------ *)
(* solver differentials (fresh domain per run)                         *)
(* ------------------------------------------------------------------ *)

type run = {
  solution : int list;
  cost : int;
  lower_bound : int;
  proven_optimal : bool;
  collections : int;
  reclaimed : int;
  peak : int;
  chain_hits : int;
}

(* solve a registry instance in a pristine domain with the given manager
   tunables; Scg.solve itself applies them via Zdd.configure.  MaxR = 0
   puts every instance above the guard, so the implicit phase runs: the
   registry instances here are all within the default guards, which
   would send them straight to the explicit phase and build no ZDD. *)
let solve_fresh ~gc_threshold ~chain name =
  let r =
    Domain.join
      (Domain.spawn (fun () ->
           let m = Benchsuite.Registry.matrix (Benchsuite.Registry.find name) in
           let config =
             {
               Scg.Config.default with
               Scg.Config.max_rows_implicit = 0;
               zdd_gc_threshold = gc_threshold;
               zdd_chain_reduction = chain;
             }
           in
           let r = Scg.solve ~config m in
           let st = Zdd.Gc.stats () in
           {
             solution = r.Scg.solution;
             cost = r.Scg.cost;
             lower_bound = r.Scg.lower_bound;
             proven_optimal = r.Scg.proven_optimal;
             collections = st.Zdd.Gc.collections;
             reclaimed = st.Zdd.Gc.reclaimed_total;
             peak = Zdd.peak_node_count ();
             chain_hits = Zdd.chain_hit_count ();
           }))
  in
  (* the child's Scg.solve wrote the shared tunables; put them back *)
  restore_defaults ();
  r

let same_answer ctx a b =
  Alcotest.(check (list int)) (ctx ^ ": solution") a.solution b.solution;
  checki (ctx ^ ": cost") a.cost b.cost;
  checki (ctx ^ ": lower bound") a.lower_bound b.lower_bound;
  checkb (ctx ^ ": optimal") a.proven_optimal b.proven_optimal

(* bench1, t1 and test4 leave no garbage: their rows build in one pass
   and their reductions keep every node alive.  ucp-easy13's implicit
   fixpoint still produces dead intermediates, so the forced collector
   has something to reclaim. *)
let differential_names = [ "bench1"; "t1"; "test4"; "ucp-easy13" ]

let test_differential_gc () =
  (* small instances may not allocate enough between safe points to
     trip even a tiny threshold, so "collection actually happened" is
     asserted across the set; identical answers are asserted per run *)
  let collections, reclaimed =
    List.fold_left
      (fun (c, r) name ->
        let off = solve_fresh ~gc_threshold:0 ~chain:true name in
        let on_ = solve_fresh ~gc_threshold:128 ~chain:true name in
        same_answer name off on_;
        checki (name ^ ": gc-off never collects") 0 off.collections;
        checkb (name ^ ": gc bounds the peak") true (on_.peak <= off.peak);
        (c + on_.collections, r + on_.reclaimed))
      (0, 0) differential_names
  in
  checkb "forced gc collected" true (collections > 0);
  checkb "forced gc reclaimed" true (reclaimed > 0)

let test_differential_chain () =
  List.iter
    (fun name ->
      let with_chain = solve_fresh ~gc_threshold:0 ~chain:true name in
      let without = solve_fresh ~gc_threshold:0 ~chain:false name in
      same_answer name with_chain without;
      checki (name ^ ": chain off takes no fast path") 0 without.chain_hits)
    differential_names;
  (* the implicit encodings are chain-heavy: at least one instance must
     actually exercise the fast paths *)
  let hits =
    List.fold_left
      (fun acc name -> acc + (solve_fresh ~gc_threshold:0 ~chain:true name).chain_hits)
      0 differential_names
  in
  checkb "chain paths exercised" true (hits > 0)

(* ------------------------------------------------------------------ *)
(* the implicit fixpoint at the collector's working threshold         *)
(* ------------------------------------------------------------------ *)

(* The row family of each input is built and reduced to the full
   implicit fixpoint (MaxR = MaxC = 0, no explicit fallback) three ways:
   collection off, collection on at 16,384 allocations, and the chain
   fast paths off.  Each run starts from a pristine manager in a fresh
   domain, so its peak is a deterministic allocation count.  The inputs
   are the registry's difficult and dense suites plus three seeded
   instances that reach tens of thousands of nodes; each carries the
   gc-on peak it reached when first measured. *)
let fixpoint_gc_threshold = 16_384
let fixpoint_node_ceiling = 150_000

let fixpoint_cases () =
  let registry (name, peak) =
    (name, Benchsuite.Registry.matrix (Benchsuite.Registry.find name), peak)
  in
  let open Benchsuite.Randucp in
  List.map registry
    [
      ("bench1", 166); ("ex5", 238); ("exam", 142); ("max1024", 264);
      ("prom2", 210); ("t1", 72); ("test4", 295); ("dense-a", 1854);
      ("dense-b", 4089); ("dense-c", 5642); ("dense-d", 4854);
      ("dense-e", 15012);
    ]
  @ [
      ( "cyc-3000x500",
        cyclic ~name:"cyc-3000x500" ~n_rows:3000 ~n_cols:500 ~k:12 (),
        29265 );
      ( "dense-700x280",
        dense_cyclic ~name:"dense-700x280" ~n_rows:700 ~n_cols:280 ~density:0.30 (),
        55164 );
      ( "beasley-400x4000",
        beasley ~name:"beasley-400x4000" ~n_rows:400 ~n_cols:4000 ~rows_per_col:8 (),
        31466 );
    ]

type fixpoint = { fingerprint : int; fixpoint_peak : int; fixpoint_chain_hits : int }

let fixpoint_fresh ~gc_threshold ~chain m =
  let r =
    Domain.join
      (Domain.spawn (fun () ->
           Zdd.configure ~gc_threshold ~chain_reduction:chain ();
           let p =
             Covering.Implicit.reduce ~max_rows:0 ~max_cols:0
               (Covering.Implicit.of_matrix m)
           in
           {
             fingerprint =
               Hashtbl.hash
                 (Zdd.to_sets p.Covering.Implicit.rows, p.Covering.Implicit.essential);
             fixpoint_peak = Zdd.peak_node_count ();
             fixpoint_chain_hits = Zdd.chain_hit_count ();
           }))
  in
  restore_defaults ();
  r

let test_fixpoint_variants () =
  let hits =
    List.fold_left
      (fun hits (name, m, peak) ->
        let off = fixpoint_fresh ~gc_threshold:0 ~chain:true m in
        let on_ = fixpoint_fresh ~gc_threshold:fixpoint_gc_threshold ~chain:true m in
        let nochain = fixpoint_fresh ~gc_threshold:0 ~chain:false m in
        checki (name ^ ": gc on reduces to the same family") off.fingerprint
          on_.fingerprint;
        checki (name ^ ": chain off reduces to the same family") off.fingerprint
          nochain.fingerprint;
        if float_of_int on_.fixpoint_peak > float_of_int peak *. 1.4 then
          Alcotest.failf "%s: gc-on peak %d nodes, above 1.4 x %d" name
            on_.fixpoint_peak peak;
        checkb (name ^ ": gc-on peak under the node ceiling") true
          (on_.fixpoint_peak <= fixpoint_node_ceiling);
        hits + off.fixpoint_chain_hits)
      0 (fixpoint_cases ())
  in
  checkb "chain paths exercised" true (hits > 0)

(* ------------------------------------------------------------------ *)
(* the node store at its smallest                                      *)
(* ------------------------------------------------------------------ *)

(* Random sequences of family operations, each step followed by a
   collection whose roots are a random subset of the live families,
   against a list-of-sets model.  Each sequence runs in a fresh domain
   whose manager starts with room for 16 nodes and collects its nursery
   past 8 allocations, so the node arrays, unique table and caches
   resize, minor and major sweeps free numbers, and later steps reuse
   them.  After every collection each surviving family must still match
   its model and be the node a rebuild from its sets finds. *)
module Model = struct
  let norm fam = List.sort_uniq compare (List.map (List.sort_uniq compare) fam)
  let union a b = norm (a @ b)
  let diff a b = List.filter (fun s -> not (List.mem s b)) a

  let change fam v =
    norm (List.map (fun s -> if List.mem v s then List.filter (( <> ) v) s else v :: s) fam)

  let subset t s = List.for_all (fun x -> List.mem x s) t
  let minimal fam =
    List.filter (fun s -> not (List.exists (fun t -> t <> s && subset t s) fam)) fam
end

type op =
  | Build of int list list
  | Union of int * int
  | Diff of int * int
  | Change of int * int
  | Minimal of int

let gen_steps =
  let open QCheck.Gen in
  let family = list_size (int_bound 12) (list_size (int_bound 6) (int_bound 13)) in
  let index = int_bound 1_000 in
  let op =
    frequency
      [
        (3, map (fun f -> Build f) family);
        (3, map2 (fun i j -> Union (i, j)) index index);
        (2, map2 (fun i j -> Diff (i, j)) index index);
        (2, map2 (fun i v -> Change (i, v)) index (int_bound 13));
        (2, map (fun i -> Minimal i) index);
      ]
  in
  (* each step: the operation, a bit mask choosing the roots, and the
     collection after it: none (0 or 1, so that caches fill across
     steps), the paced one (2) or a forced major one (3) *)
  list_size (int_range 1 30) (triple op (int_bound 0xfffff) (int_bound 3))

let run_steps steps =
  let live = ref [] in
  let pick i =
    match !live with [] -> (Zdd.empty, []) | l -> List.nth l (i mod List.length l)
  in
  let agrees (f, m) =
    Model.norm (Zdd.to_sets f) = m && Zdd.count f = float_of_int (List.length m)
  in
  List.for_all
    (fun (op, mask, collection) ->
      let fm =
        match op with
        | Build fam -> (Zdd.of_sets fam, Model.norm fam)
        | Union (i, j) ->
          let (f, a), (g, b) = (pick i, pick j) in
          (Zdd.union f g, Model.union a b)
        | Diff (i, j) ->
          let (f, a), (g, b) = (pick i, pick j) in
          (Zdd.diff f g, Model.diff a b)
        | Change (i, v) ->
          let f, a = pick i in
          (Zdd.change f v, Model.change a v)
        | Minimal i ->
          let f, a = pick i in
          (Zdd.minimal f, Model.minimal a)
      in
      live := !live @ [ fm ];
      let ok = agrees fm in
      let roots = List.filteri (fun i _ -> (mask lsr (i mod 20)) land 1 = 1) !live in
      let root_nodes = List.map fst roots in
      let collected =
        match collection with
        | 2 -> Zdd.Gc.maybe_collect ~roots:root_nodes ()
        | 3 ->
          ignore (Zdd.Gc.collect ~roots:root_nodes ());
          true
        | _ -> false
      in
      if collected then live := roots;
      ok && List.for_all (fun (f, m) -> agrees (f, m) && Zdd.equal f (Zdd.of_sets m)) !live)
    steps

let prop_small_tables =
  QCheck.Test.make ~name:"collections at the smallest tables agree with a list model"
    ~count:300
    (QCheck.make
       ~print:(fun steps -> Printf.sprintf "<%d steps>" (List.length steps))
       gen_steps)
    (fun steps ->
      with_config ~initial_size:16 ~gc_threshold:8 (fun () ->
          Domain.join (Domain.spawn (fun () -> run_steps steps))))

let () =
  Alcotest.run "zdd_gc"
    [
      ( "collect",
        [
          Alcotest.test_case "reclaims garbage" `Quick test_collect_reclaims_garbage;
          Alcotest.test_case "canonicity preserved" `Quick
            test_canonicity_after_collect;
          Alcotest.test_case "peak monotone" `Quick test_peak_monotone;
          QCheck_alcotest.to_alcotest prop_small_tables;
        ] );
      ( "auto",
        [
          Alcotest.test_case "threshold" `Quick test_maybe_collect_threshold;
          Alcotest.test_case "disabled" `Quick test_gc_disabled;
        ] );
      ( "build",
        [
          Alcotest.test_case "result nodes only" `Quick
            test_build_allocates_result_only;
        ] );
      ( "differential",
        [
          Alcotest.test_case "gc on/off" `Quick test_differential_gc;
          Alcotest.test_case "chain on/off" `Quick test_differential_chain;
          Alcotest.test_case "implicit fixpoint" `Quick test_fixpoint_variants;
        ] );
    ]
