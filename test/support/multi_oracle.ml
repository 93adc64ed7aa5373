(* Multi-output prime generation as first written: for every output
   subset, the product of its care functions conjoined from scratch, a
   Coudert–Madre run with a memo of its own, every prime decoded and
   looked up by its string, and each new cube tagged with
   [is_zero (bdiff cube care_k)] per output.  [Logic.Multi.primes] is
   tested against it: both must return the same sorted list. *)

open Logic

let care_bdds pla =
  Array.init pla.Pla.no (fun k ->
      Bdd.bor (Cover.to_bdd (Pla.onset pla k)) (Cover.to_bdd (Pla.dcset pla k)))

let output_max cares cube_bdd =
  let acc = ref [] in
  for k = Array.length cares - 1 downto 0 do
    if Bdd.is_zero (Bdd.bdiff cube_bdd cares.(k)) then acc := k :: !acc
  done;
  !acc

let primes pla =
  let n = pla.Pla.ni and m = pla.Pla.no in
  let cares = care_bdds pla in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let acc = ref [] in
  for mask = 1 to (1 lsl m) - 1 do
    let product = ref Bdd.one in
    for k = 0 to m - 1 do
      if mask land (1 lsl k) <> 0 then product := Bdd.band !product cares.(k)
    done;
    if not (Bdd.is_zero !product) then
      List.iter
        (fun cube ->
          let key = Cube.to_string cube in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            acc := { Multi.cube; outputs = output_max cares (Cube.to_bdd cube) } :: !acc
          end)
        (Primes.to_cubes ~nvars:n (Primes.of_bdd !product))
  done;
  List.sort Multi.compare_prime !acc
