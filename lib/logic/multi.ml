type prime = {
  cube : Cube.t;
  outputs : int list;
}

let equal_prime a b = Cube.equal a.cube b.cube && a.outputs = b.outputs

let compare_prime a b =
  let c = Cube.compare a.cube b.cube in
  if c <> 0 then c else Stdlib.compare a.outputs b.outputs

let pp_prime ppf p =
  Fmt.pf ppf "%a -> {%a}" Cube.pp p.cube Fmt.(list ~sep:(any ",") int) p.outputs

let care_bdds pla =
  Array.init pla.Pla.no (fun k ->
      Bdd.bor (Cover.to_bdd (Pla.onset pla k)) (Cover.to_bdd (Pla.dcset pla k)))

let output_max cares cube_bdd =
  let acc = ref [] in
  for k = Array.length cares - 1 downto 0 do
    if Bdd.implies cube_bdd cares.(k) then acc := k :: !acc
  done;
  !acc

let primes ?(telemetry = Telemetry.null) pla =
  if pla.Pla.no > 16 then invalid_arg "Multi.primes: too many outputs";
  if pla.Pla.ni > 24 then invalid_arg "Multi.primes: too many inputs";
  let n = pla.Pla.ni and m = pla.Pla.no in
  let cares = care_bdds pla in
  (* products.(mask) = ⋀_{k ∈ mask} care_k, one [band] on the product of
     [mask] without its lowest output; one prime memo for every subset,
     whose products share most of their cofactors *)
  let products = Array.make (1 lsl m) Bdd.one in
  let memo = Primes.memo () in
  let all = ref Zdd.empty and subsets = ref 0 in
  for mask = 1 to (1 lsl m) - 1 do
    let rest = mask land (mask - 1) in
    let rec lowest k = if (mask lsr k) land 1 = 1 then k else lowest (k + 1) in
    let product = Bdd.band products.(rest) cares.(lowest 0) in
    products.(mask) <- product;
    if not (Bdd.is_zero product) then begin
      incr subsets;
      all := Zdd.union !all (Primes.of_bdd ~memo product)
    end
  done;
  Telemetry.add telemetry "bridge.subsets" !subsets;
  (* each distinct cube once, whichever subsets it is input-prime for:
     its multi-output tag is the maximal set of outputs it implies, and
     input primality transfers to that larger product function *)
  Primes.to_cubes ~nvars:n !all
  |> List.map (fun cube ->
         let outputs = output_max cares (Cube.to_bdd cube) in
         (* the tag always contains a generating subset *)
         assert (outputs <> []);
         { cube; outputs })
  |> List.sort compare_prime

let is_implicant pla p =
  p.outputs <> []
  && begin
       let cares = care_bdds pla in
       let cb = Cube.to_bdd p.cube in
       List.for_all
         (fun k -> k >= 0 && k < pla.Pla.no && Bdd.implies cb cares.(k))
         p.outputs
     end

let brute_force_primes pla =
  let n = pla.Pla.ni in
  if n > 6 || pla.Pla.no > 4 then invalid_arg "Multi.brute_force_primes: too large";
  let cares = care_bdds pla in
  let all_cubes = ref [] in
  let total = int_of_float (Float.pow 3. (float_of_int n)) in
  for code = 0 to total - 1 do
    let c = ref code in
    let lits = ref [] in
    for i = 0 to n - 1 do
      (match !c mod 3 with
      | 0 -> lits := (i, false) :: !lits
      | 1 -> lits := (i, true) :: !lits
      | _ -> ());
      c := !c / 3
    done;
    all_cubes := Cube.of_literals n !lits :: !all_cubes
  done;
  List.filter_map
    (fun cube ->
      let outputs = output_max cares (Cube.to_bdd cube) in
      if outputs = [] then None
      else begin
        (* prime iff no single raise keeps implicancy for the whole tag *)
        let raise_ok (i, _) =
          let raised = Cube.to_bdd (Cube.raise_var cube i) in
          List.for_all (fun k -> Bdd.implies raised cares.(k)) outputs
        in
        if List.exists raise_ok (Cube.literals cube) then None
        else Some { cube; outputs }
      end)
    !all_cubes
  |> List.sort compare_prime

let rows pla =
  List.init pla.Pla.no (fun k ->
      List.map (fun m -> (m, k)) (Cover.minterms ~except:(Pla.dcset pla k) (Pla.onset pla k)))
  |> List.concat
  (* each output's minterms ascend, so a stable sort on the minterm alone
     orders the rows by minterm, then output *)
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)

let covers_row p (m, k) = List.mem k p.outputs && Cube.covers_minterm p.cube m

let realised_cost primes =
  List.length
    (List.sort_uniq Cube.compare (List.map (fun p -> p.cube) primes))
