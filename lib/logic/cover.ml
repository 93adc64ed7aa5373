(* Covers as immutable cube lists, with the classical unate-recursive
   operations (tautology, complement, sharp).  The recursion variable is
   chosen "most binate first", which keeps the branching shallow on the
   benchmark-sized functions this library targets. *)

type t = { n : int; cubes : Cube.t list }

let of_cubes n cubes =
  List.iter
    (fun c -> if Cube.nvars c <> n then invalid_arg "Cover.of_cubes: arity mismatch")
    cubes;
  { n; cubes }

let empty n = { n; cubes = [] }
let universe n = { n; cubes = [ Cube.universe n ] }
let nvars f = f.n
let cubes f = f.cubes
let size f = List.length f.cubes
let literal_cost f = List.fold_left (fun acc c -> acc + Cube.literal_count c) 0 f.cubes
let is_empty f = f.cubes = []
let mem c f = List.exists (Cube.equal c) f.cubes
let add c f =
  if Cube.nvars c <> f.n then invalid_arg "Cover.add: arity mismatch";
  { f with cubes = c :: f.cubes }

let union f g =
  if f.n <> g.n then invalid_arg "Cover.union: arity mismatch";
  { n = f.n; cubes = f.cubes @ g.cubes }

let pp ppf f =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Cube.pp) f.cubes

let eval_minterm f m = List.exists (fun c -> Cube.covers_minterm c m) f.cubes
let to_bdd f = Bdd.disj (List.map Cube.to_bdd f.cubes)
let equal_semantics f g = Bdd.equal (to_bdd f) (to_bdd g)

(* Every cube's minterms are marked in one 2^n-bit vector, those of
   [except] cleared again, and the marks read back in ascending order. *)
let minterms ?except f =
  if f.n > 24 then invalid_arg "Cover.minterms: too many variables";
  let bits = Bitvec.create (1 lsl f.n) in
  let mark g b =
    List.iter (fun c -> Cube.iter_minterms c (fun m -> Bitvec.set bits m b)) g.cubes
  in
  mark f true;
  Option.iter
    (fun g ->
      if g.n <> f.n then invalid_arg "Cover.minterms: arity mismatch";
      mark g false)
    except;
  List.rev (Bitvec.fold_ones bits ~init:[] ~f:(fun acc m -> m :: acc))

let cofactor f ~by =
  { n = f.n; cubes = List.filter_map (fun c -> Cube.cofactor c ~by) f.cubes }

(* Literal occurrence counts: (positive, negative) per variable. *)
let phase_counts f =
  let pos = Array.make f.n 0 and neg = Array.make f.n 0 in
  List.iter
    (fun c ->
      for i = 0 to f.n - 1 do
        match Cube.phase c i with
        | Cube.One -> pos.(i) <- pos.(i) + 1
        | Cube.Zero -> neg.(i) <- neg.(i) + 1
        | Cube.Dash -> ()
      done)
    f.cubes;
  (pos, neg)

let select_binate_var f =
  let pos, neg = phase_counts f in
  let best = ref None in
  (* prefer the variable maximising min(pos, neg); among unate variables,
     maximise total occurrences *)
  for i = 0 to f.n - 1 do
    if pos.(i) + neg.(i) > 0 then begin
      let key = (min pos.(i) neg.(i), pos.(i) + neg.(i)) in
      match !best with
      | None -> best := Some (i, key)
      | Some (_, best_key) -> if key > best_key then best := Some (i, key)
    end
  done;
  Option.map fst !best

let has_universal_cube f = List.exists (fun c -> Cube.literal_count c = 0) f.cubes

let literal_cube n i positive = Cube.of_literals n [ (i, positive) ]

let rec is_tautology f =
  if has_universal_cube f then true
  else if is_empty f then false
  else
    match select_binate_var f with
    | None -> false (* only universal cubes would have no literals *)
    | Some v ->
      let pos, neg = phase_counts f in
      if pos.(v) = 0 || neg.(v) = 0 then
        (* unate in the splitting variable: cubes with the literal are
           subsumed in the tautology question by the opposite cofactor *)
        is_tautology (cofactor f ~by:(literal_cube f.n v (pos.(v) = 0)))
      else
        is_tautology (cofactor f ~by:(literal_cube f.n v true))
        && is_tautology (cofactor f ~by:(literal_cube f.n v false))

let covers_cube f c =
  if Cube.nvars c <> f.n then invalid_arg "Cover.covers_cube: arity mismatch";
  is_tautology (cofactor f ~by:c)

let covers f g =
  if f.n <> g.n then invalid_arg "Cover.covers: arity mismatch";
  List.for_all (covers_cube f) g.cubes

let single_cube_containment f =
  let keep c =
    not
      (List.exists
         (fun d -> (not (Cube.equal c d)) && Cube.subsumes d c)
         f.cubes)
  in
  (* ties between identical cubes: keep the first occurrence only *)
  let rec dedup seen = function
    | [] -> []
    | c :: rest ->
      if List.exists (Cube.equal c) seen then dedup seen rest
      else c :: dedup (c :: seen) rest
  in
  { f with cubes = dedup [] (List.filter keep f.cubes) }

(* Complement of a single cube by De Morgan: one cube per literal. *)
let cube_complement n c =
  List.map (fun (i, positive) -> literal_cube n i (not positive)) (Cube.literals c)

let and_literal f v positive =
  let cubes =
    List.filter_map
      (fun c ->
        match Cube.phase c v with
        | Cube.Dash -> (
          match Cube.set_phase c v (if positive then Cube.One else Cube.Zero) with
          | Some c -> Some c
          | None -> assert false)
        | Cube.One -> if positive then Some c else None
        | Cube.Zero -> if positive then None else Some c)
      f.cubes
  in
  { f with cubes }

let rec complement f =
  if is_empty f then universe f.n
  else if has_universal_cube f then empty f.n
  else
    match f.cubes with
    | [ c ] -> { f with cubes = cube_complement f.n c }
    | _ ->
      let v =
        match select_binate_var f with
        | Some v -> v
        | None -> assert false (* multi-cube cover without universal cube has literals *)
      in
      let c1 = complement (cofactor f ~by:(literal_cube f.n v true)) in
      let c0 = complement (cofactor f ~by:(literal_cube f.n v false)) in
      (* lift cubes common to both branches: they do not need the literal *)
      let common = List.filter (fun c -> mem c c0) c1.cubes in
      let only1 = List.filter (fun c -> not (mem c c0)) c1.cubes in
      let only0 = List.filter (fun c -> not (mem c c1)) c0.cubes in
      let branch1 = and_literal { f with cubes = only1 } v true in
      let branch0 = and_literal { f with cubes = only0 } v false in
      single_cube_containment
        { f with cubes = common @ branch1.cubes @ branch0.cubes }

(* Disjoint sharp of a cube by a cube: cover of [a ∧ ¬c]. *)
let cube_sharp n a c =
  match Cube.inter a c with
  | None -> [ a ]
  | Some _ ->
    let pieces = ref [] in
    let prefix = ref a in
    (try
       for i = 0 to n - 1 do
         match Cube.phase c i with
         | Cube.Dash -> ()
         | (Cube.One | Cube.Zero) as p ->
           let opposite = if p = Cube.One then Cube.Zero else Cube.One in
           (match Cube.phase !prefix i with
           | Cube.Dash ->
             (match Cube.set_phase !prefix i opposite with
             | Some piece -> pieces := piece :: !pieces
             | None -> assert false);
             (* constrain the prefix to agree with c at i and continue *)
             (match Cube.set_phase !prefix i p with
             | Some rest -> prefix := rest
             | None -> assert false)
           | q when q = p -> () (* already inside c on this variable *)
           | _ -> raise Exit (* disjoint after all — cannot happen: inter ≠ ∅ *))
       done
     with Exit -> ());
    !pieces

let sharp f c =
  if Cube.nvars c <> f.n then invalid_arg "Cover.sharp: arity mismatch";
  single_cube_containment
    { f with cubes = List.concat_map (fun a -> cube_sharp f.n a c) f.cubes }
