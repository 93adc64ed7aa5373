open Logic
module CubeSet = Set.Make (Cube)

(* Merge two cubes that are identical except in one variable where they
   hold opposite literals.  This is exactly distance 1 with equal dash
   patterns, which the supercube then realises. *)
let merge a b =
  if Cube.distance a b <> 1 then None
  else begin
    let n = Cube.nvars a in
    let same_dashes = ref true in
    for i = 0 to n - 1 do
      let pa = Cube.phase a i and pb = Cube.phase b i in
      match (pa, pb) with
      | Cube.Dash, Cube.Dash -> ()
      | Cube.Dash, _ | _, Cube.Dash -> same_dashes := false
      | (Cube.One | Cube.Zero), (Cube.One | Cube.Zero) -> ()
    done;
    if !same_dashes then Some (Cube.supercube a b) else None
  end

let primes ~on ~dc =
  let n = Cover.nvars on in
  if Cover.nvars dc <> n then invalid_arg "Qm.primes: arity mismatch";
  if n > 20 then invalid_arg "Qm.primes: too many inputs for tabulation";
  let care = Cover.union on dc in
  let minterm_cube m =
    Cube.of_literals n (List.init n (fun i -> (i, m land (1 lsl i) <> 0)))
  in
  let level0 =
    List.fold_left
      (fun acc m -> CubeSet.add (minterm_cube m) acc)
      CubeSet.empty (Cover.minterms care)
  in
  let rec go level primes =
    if CubeSet.is_empty level then primes
    else begin
      let cubes = CubeSet.elements level in
      let merged = ref CubeSet.empty in
      let used = Hashtbl.create (List.length cubes) in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if j > i then
                match merge a b with
                | Some c ->
                  merged := CubeSet.add c !merged;
                  Hashtbl.replace used (Cube.hash a, Cube.to_string a) ();
                  Hashtbl.replace used (Cube.hash b, Cube.to_string b) ()
                | None -> ())
            cubes)
        cubes;
      let survivors =
        CubeSet.filter (fun c -> not (Hashtbl.mem used (Cube.hash c, Cube.to_string c))) level
      in
      go !merged (CubeSet.union survivors primes)
    end
  in
  CubeSet.elements (go level0 CubeSet.empty)

let brute_force_primes ~on ~dc =
  let n = Cover.nvars on in
  if Cover.nvars dc <> n then invalid_arg "Qm.brute_force_primes: arity mismatch";
  if n > 10 then invalid_arg "Qm.brute_force_primes: too many inputs";
  let care = Cover.union on dc in
  (* all 3^n cubes, by phase vector in base 3 *)
  let all = ref [] in
  let total = int_of_float (Float.pow 3. (float_of_int n)) in
  for code = 0 to total - 1 do
    let c = ref code in
    let lits = ref [] in
    let ok = ref true in
    for i = 0 to n - 1 do
      (match !c mod 3 with
      | 0 -> lits := (i, false) :: !lits
      | 1 -> lits := (i, true) :: !lits
      | _ -> ());
      c := !c / 3;
      ignore !ok
    done;
    all := Cube.of_literals n !lits :: !all
  done;
  let is_implicant c = Cover.covers_cube care c in
  let implicants = List.filter is_implicant !all in
  List.filter
    (fun c ->
      not
        (List.exists (fun d -> (not (Cube.equal c d)) && Cube.subsumes d c) implicants))
    implicants
