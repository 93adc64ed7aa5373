type t = {
  matrix : Matrix.t;
  primes : Logic.Cube.t array;
  minterms : int array;
}

let product_cost _ = 1
let literal_cost = Logic.Cube.literal_count

let lexicographic_cost ~nvars c =
  (* any solution with fewer products wins regardless of literals because
     a product's literal count never exceeds nvars *)
  nvars + 1 + Logic.Cube.literal_count c

let build ?(cost = fun _ -> 1) ~on ~dc () =
  let n = Logic.Cover.nvars on in
  if n > 24 then invalid_arg "From_logic.build: too many inputs for minterm expansion";
  if Logic.Cover.is_empty on then invalid_arg "From_logic.build: empty ON-set";
  let primes_zdd = Logic.Primes.of_covers ~on ~dc in
  let primes = Array.of_list (Logic.Primes.to_cubes ~nvars:n primes_zdd) in
  let n_cols = Array.length primes in
  (* rows: the minterms that genuinely must be covered, ON ∖ DC.  A
     minterm listed in both planes is a don't-care (espresso semantics:
     the implementation may realise any G with ON∖DC ⊆ G ⊆ ON∪DC). *)
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
  { matrix = Matrix.create ~cost ~n_cols rows; primes; minterms }

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

let build_implicit ?(cost = fun _ -> 1) ?(max_regions = 50_000) ~on ~dc () =
  let n = Logic.Cover.nvars on in
  if Logic.Cover.nvars dc <> n then invalid_arg "From_logic.build_implicit: arity mismatch";
  let on_bdd = Logic.Cover.to_bdd on and dc_bdd = Logic.Cover.to_bdd dc in
  let care_on = Bdd.bdiff on_bdd dc_bdd in
  if Bdd.is_zero care_on then
    invalid_arg "From_logic.build_implicit: empty ON-set (everything is don't-care)";
  let primes_zdd = Logic.Primes.of_covers ~on ~dc in
  let iprimes = Array.of_list (Logic.Primes.to_cubes ~nvars:n primes_zdd) in
  (* refine the care ON-set region by region: after processing prime j,
     every region is exactly the set of care ON-points whose signature
     restricted to primes 0..j is the region's, so no two regions share
     a signature (doc/ALGORITHMS.md §14).  The test before [band] skips
     the conjunction for the (typical) disjoint pair, whose outside part
     is the region itself; a region inside the prime has no outside
     part. *)
  let regions = ref [ (care_on, []) ] in
  Array.iteri
    (fun j cube ->
      let b = Logic.Cube.to_bdd cube in
      let next = ref [] in
      List.iter
        (fun (region, signature) ->
          if not (Bdd.intersects region b) then next := (region, signature) :: !next
          else begin
            let inside = Bdd.band region b in
            next := (inside, j :: signature) :: !next;
            if not (Bdd.equal inside region) then
              next := (Bdd.bdiff region b, signature) :: !next
          end)
        !regions;
      if List.length !next > max_regions then
        invalid_arg "From_logic.build_implicit: signature blow-up (raise max_regions)";
      regions := !next)
    iprimes;
  let rows =
    List.map (fun (region, signature) -> (List.rev signature, region)) !regions
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  let iregions = Array.of_list (List.map snd rows) in
  let cost = Array.map cost iprimes in
  {
    imatrix = Matrix.create ~cost ~n_cols:(Array.length iprimes) (List.map fst rows);
    iprimes;
    iregions;
  }

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

let build_multi pla =
  let mprimes = Array.of_list (Logic.Multi.primes pla) in
  let mrows = Array.of_list (Logic.Multi.rows pla) in
  if Array.length mrows = 0 then
    invalid_arg "From_logic.build_multi: no ON-minterm on any output";
  let n_cols = Array.length mprimes in
  let masks = Array.map (fun p -> Logic.Cube.masks p.Logic.Multi.cube) mprimes in
  let outputs =
    Array.map
      (fun p -> List.fold_left (fun acc k -> acc lor (1 lsl k)) 0 p.Logic.Multi.outputs)
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
  { mmatrix = Matrix.create ~n_cols rows; mprimes; mrows }

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
