type t = {
  matrix : Matrix.t;
  primes : Logic.Cube.t array;
  minterms : int array;
}

let literal_cost = Logic.Cube.literal_count

let lexicographic_cost ~nvars c =
  (* any solution with fewer products wins regardless of literals because
     a product's literal count never exceeds nvars *)
  nvars + 1 + Logic.Cube.literal_count c

let build ?(telemetry = Telemetry.null) ?(cost = fun _ -> 1) ~on ~dc () =
  let n = Logic.Cover.nvars on in
  if n > 24 then invalid_arg "From_logic.build: too many inputs for minterm expansion";
  if Logic.Cover.is_empty on then invalid_arg "From_logic.build: empty ON-set";
  let primes =
    Telemetry.span telemetry "bridge-primes" (fun () ->
        Array.of_list (Logic.Primes.to_cubes ~nvars:n (Logic.Primes.of_covers ~on ~dc)))
  in
  Telemetry.span telemetry "bridge-rows" (fun () ->
      let n_cols = Array.length primes in
      (* rows: the minterms that genuinely must be covered, ON ∖ DC.  A
         minterm listed in both planes is a don't-care (espresso
         semantics: the implementation may realise any G with
         ON∖DC ⊆ G ⊆ ON∪DC). *)
      let minterms = Array.of_list (Logic.Cover.minterms ~except:dc on) in
      let masks = Array.map Logic.Cube.masks primes in
      let rows =
        Array.to_list minterms
        |> List.map (fun m ->
               let covering = ref [] in
               for j = n_cols - 1 downto 0 do
                 let care, value = masks.(j) in
                 if m land care = value then covering := j :: !covering
               done;
               assert (!covering <> []);
               (* primes cover the care set, hence every ON-minterm *)
               !covering)
      in
      let cost = Array.map cost primes in
      { matrix = Matrix.create ~cost ~n_cols rows; primes; minterms })

let build_pla ?cost pla ~output =
  build ?cost ~on:(Logic.Pla.onset pla output) ~dc:(Logic.Pla.dcset pla output) ()

let cover_of_solution t sol =
  let n =
    if Array.length t.primes = 0 then 0 else Logic.Cube.nvars t.primes.(0)
  in
  Logic.Cover.of_cubes n (List.map (fun id -> t.primes.(id)) sol)

let verify_solution t sol =
  List.for_all (fun id -> id >= 0 && id < Array.length t.primes) sol
  && Array.for_all
       (fun m -> List.exists (fun id -> Logic.Cube.covers_minterm t.primes.(id) m) sol)
       t.minterms

type implicit_bridge = {
  imatrix : Matrix.t;
  iprimes : Logic.Cube.t array;
  iregions : Bdd.t array;
}

(* A region of the refinement: its points, the primes that contain
   them (latest first), and the cube those primes share as int masks
   ([Logic.Cube.masks] of their intersection; (0, 0), the universal
   cube, above 62 inputs, where masks do not fit an int). *)
type region = { points : Bdd.t; signature : int list; care : int; value : int }

let build_implicit ?(telemetry = Telemetry.null) ?(cost = fun _ -> 1)
    ?(max_regions = 50_000) ~on ~dc () =
  let n = Logic.Cover.nvars on in
  if Logic.Cover.nvars dc <> n then invalid_arg "From_logic.build_implicit: arity mismatch";
  let on_bdd = Logic.Cover.to_bdd on and dc_bdd = Logic.Cover.to_bdd dc in
  let care_on = Bdd.bdiff on_bdd dc_bdd in
  if Bdd.is_zero care_on then
    invalid_arg "From_logic.build_implicit: empty ON-set (everything is don't-care)";
  let iprimes =
    Telemetry.span telemetry "bridge-primes" (fun () ->
        Array.of_list (Logic.Primes.to_cubes ~nvars:n (Logic.Primes.of_covers ~on ~dc)))
  in
  Telemetry.span telemetry "bridge-rows" (fun () ->
      (* refine the care ON-set region by region: after processing prime
         j, every region is exactly the set of care ON-points whose
         signature restricted to primes 0..j is the region's, so no two
         regions share a signature (doc/ALGORITHMS.md §14).  A region
         lies inside the cube its primes share, so when that cube and
         the prime are disjoint, so are the region and the prime, and
         the mask test skips the BDD search; [Bdd.intersects] skips
         [band] for the other disjoint pairs.  Either way the outside
         part is the region itself; a region inside the prime has no
         outside part. *)
      let regions = ref [ { points = care_on; signature = []; care = 0; value = 0 } ] in
      let skipped = ref 0 in
      Array.iteri
        (fun j cube ->
          let b = Logic.Cube.to_bdd cube in
          let pcare, pvalue = if n <= 62 then Logic.Cube.masks cube else (0, 0) in
          let next = ref [] and count = ref 0 in
          let keep r =
            next := r :: !next;
            incr count
          in
          List.iter
            (fun r ->
              if (r.value lxor pvalue) land r.care land pcare <> 0 then begin
                incr skipped;
                keep r
              end
              else if not (Bdd.intersects r.points b) then keep r
              else begin
                let inside = Bdd.band r.points b in
                keep
                  {
                    points = inside;
                    signature = j :: r.signature;
                    care = r.care lor pcare;
                    value = r.value lor pvalue;
                  };
                if not (Bdd.equal inside r.points) then
                  keep { r with points = Bdd.bdiff r.points b }
              end)
            !regions;
          if !count > max_regions then
            invalid_arg "From_logic.build_implicit: signature blow-up (raise max_regions)";
          regions := !next)
        iprimes;
      let rows =
        List.map (fun r -> (List.rev r.signature, r.points)) !regions
        |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
      in
      let iregions = Array.of_list (List.map snd rows) in
      Telemetry.add telemetry "bridge.regions" (Array.length iregions);
      Telemetry.add telemetry "bridge.cube_skips" !skipped;
      let cost = Array.map cost iprimes in
      {
        imatrix = Matrix.create ~cost ~n_cols:(Array.length iprimes) (List.map fst rows);
        iprimes;
        iregions;
      })

let verify_implicit t sol =
  List.for_all (fun id -> id >= 0 && id < Array.length t.iprimes) sol
  &&
  let union =
    List.fold_left
      (fun acc id -> Bdd.bor acc (Logic.Cube.to_bdd t.iprimes.(id)))
      Bdd.zero sol
  in
  Array.for_all (fun region -> Bdd.implies region union) t.iregions

type multi = {
  mmatrix : Matrix.t;
  mprimes : Logic.Multi.prime array;
  mrows : (int * int) array;
}

let build_multi ?(telemetry = Telemetry.null) pla =
  let mprimes =
    Telemetry.span telemetry "bridge-primes" (fun () ->
        Array.of_list (Logic.Multi.primes ~telemetry pla))
  in
  Telemetry.span telemetry "bridge-rows" (fun () ->
      let mrows = Array.of_list (Logic.Multi.rows pla) in
      if Array.length mrows = 0 then
        invalid_arg "From_logic.build_multi: no ON-minterm on any output";
      let n_cols = Array.length mprimes in
      let masks = Array.map (fun p -> Logic.Cube.masks p.Logic.Multi.cube) mprimes in
      let outputs =
        Array.map
          (fun p ->
            List.fold_left (fun acc k -> acc lor (1 lsl k)) 0 p.Logic.Multi.outputs)
          mprimes
      in
      let rows =
        Array.to_list mrows
        |> List.map (fun (m, k) ->
               let covering = ref [] in
               for j = n_cols - 1 downto 0 do
                 let care, value = masks.(j) in
                 if (outputs.(j) lsr k) land 1 = 1 && m land care = value then
                   covering := j :: !covering
               done;
               assert (!covering <> []);
               !covering)
      in
      { mmatrix = Matrix.create ~n_cols rows; mprimes; mrows })

let verify_multi t sol =
  List.for_all (fun id -> id >= 0 && id < Array.length t.mprimes) sol
  && Array.for_all
       (fun row -> List.exists (fun id -> Logic.Multi.covers_row t.mprimes.(id) row) sol)
       t.mrows

let pla_of_multi_solution pla t sol =
  let rows =
    List.map
      (fun id ->
        let p = t.mprimes.(id) in
        let out =
          String.init pla.Logic.Pla.no (fun k ->
              if List.mem k p.Logic.Multi.outputs then '1' else '0')
        in
        (p.Logic.Multi.cube, out))
      (List.sort_uniq Stdlib.compare sol)
  in
  {
    Logic.Pla.ni = pla.Logic.Pla.ni;
    no = pla.Logic.Pla.no;
    kind = Logic.Pla.FD;
    input_labels = pla.Logic.Pla.input_labels;
    output_labels = pla.Logic.Pla.output_labels;
    rows;
  }
