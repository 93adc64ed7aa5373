module Cube = Logic.Cube
module Cover = Logic.Cover

type mode =
  | Normal
  | Strong

type result = {
  cover : Cover.t;
  cost : int;
  literals : int;
  loops : int;
  seconds : float;
  interrupted : bool;
}

(* ------------------------------------------------------------------ *)
(* EXPAND                                                             *)
(* ------------------------------------------------------------------ *)

(* Raise variables of [c] while the cube stays disjoint from the OFF-set.
   Variable order: the raise that lets the cube swallow the most other
   cubes of the current cover, then lowest index.  The result is a prime
   implicant of ON ∪ DC (no further raise is feasible). *)
let expand_cube ~off ~others c =
  let n = Cube.nvars c in
  let valid cube = not (List.exists (fun r -> Cube.inter cube r <> None) (Cover.cubes off)) in
  let gain cube =
    List.length (List.filter (fun d -> Cube.subsumes cube d) others)
  in
  let rec grow c =
    let candidates =
      List.filter_map
        (fun i ->
          match Cube.phase c i with
          | Cube.Dash -> None
          | Cube.One | Cube.Zero ->
            let raised = Cube.raise_var c i in
            if valid raised then Some (raised, gain raised, i) else None)
        (List.init n Fun.id)
    in
    match candidates with
    | [] -> c
    | _ ->
      let best =
        List.fold_left
          (fun (bc, bg, bi) (cc, cg, ci) ->
            if cg > bg || (cg = bg && ci < bi) then (cc, cg, ci) else (bc, bg, bi))
          (c, -1, max_int) candidates
      in
      let best_cube, _, _ = best in
      grow best_cube
  in
  grow c

let expand ~off f =
  (* process big cubes first so they swallow the small ones early *)
  let order =
    List.sort
      (fun a b -> Stdlib.compare (Cube.literal_count a, a) (Cube.literal_count b, b))
      (Cover.cubes f)
  in
  let expanded =
    List.fold_left
      (fun acc c ->
        (* skip cubes already swallowed by an earlier expansion *)
        if List.exists (fun d -> Cube.subsumes d c) acc then acc
        else expand_cube ~off ~others:(Cover.cubes f) c :: acc)
      [] order
  in
  Cover.single_cube_containment (Cover.of_cubes (Cover.nvars f) expanded)

(* ------------------------------------------------------------------ *)
(* IRREDUNDANT                                                        *)
(* ------------------------------------------------------------------ *)

let irredundant ~dc f =
  (* duplicates would confuse the drop-one-copy logic below *)
  let f = Cover.single_cube_containment f in
  let n = Cover.nvars f in
  let covered_by rest c = Cover.covers_cube (Cover.union (Cover.of_cubes n rest) dc) c in
  (* relatively essential cubes can never be dropped; try dropping the
     others, biggest literal count (most specific) first *)
  let cubes = Cover.cubes f in
  let essential, removable =
    List.partition
      (fun c -> not (covered_by (List.filter (fun d -> not (Cube.equal d c)) cubes) c))
      cubes
  in
  let removable =
    List.sort
      (fun a b -> Stdlib.compare (Cube.literal_count b, b) (Cube.literal_count a, a))
      removable
  in
  let kept =
    List.fold_left
      (fun kept c ->
        let rest = essential @ List.filter (fun d -> not (Cube.equal d c)) kept in
        if covered_by rest c then List.filter (fun d -> not (Cube.equal d c)) kept
        else kept)
      removable removable
  in
  Cover.of_cubes n (essential @ kept)

(* ------------------------------------------------------------------ *)
(* REDUCE                                                             *)
(* ------------------------------------------------------------------ *)

(* Shrink [c] to the supercube of the part of the function only [c]
   explains: c ∩ ¬(rest ∪ dc).  Dropped entirely when that part is empty. *)
let reduce_cube ~dc rest c =
  let n = Cube.nvars c in
  let remainder =
    List.fold_left
      (fun cov d -> Cover.sharp cov d)
      (Cover.of_cubes n [ c ])
      (rest @ Cover.cubes dc)
  in
  match Cover.cubes remainder with
  | [] -> None
  | first :: more -> Some (List.fold_left Cube.supercube first more)

let reduce ~dc f =
  (* smallest cubes first: their essential part shrinks most *)
  let n = Cover.nvars f in
  let arr =
    Array.of_list
      (List.sort
         (fun a b -> Stdlib.compare (Cube.literal_count b, b) (Cube.literal_count a, a))
         (Cover.cubes f))
  in
  let alive = Array.make (Array.length arr) true in
  for idx = 0 to Array.length arr - 1 do
    let rest = ref [] in
    Array.iteri (fun k c -> if k <> idx && alive.(k) then rest := c :: !rest) arr;
    match reduce_cube ~dc !rest arr.(idx) with
    | None -> alive.(idx) <- false
    | Some c' -> arr.(idx) <- c'
  done;
  let kept = ref [] in
  Array.iteri (fun k c -> if alive.(k) then kept := c :: !kept) arr;
  Cover.of_cubes n !kept

(* ------------------------------------------------------------------ *)
(* LAST_GASP                                                          *)
(* ------------------------------------------------------------------ *)

let last_gasp ~off ~dc f =
  let n = Cover.nvars f in
  let cubes = Cover.cubes f in
  (* reduce every cube independently against the full rest of the cover *)
  let maximally_reduced =
    List.filter_map
      (fun c ->
        let rest = List.filter (fun d -> not (Cube.equal d c)) cubes in
        reduce_cube ~dc rest c)
      cubes
  in
  (* re-expand the reduced cubes; any that swallows two or more original
     reduced cubes is a genuinely new prime worth adding *)
  let news =
    List.filter_map
      (fun c ->
        let e = expand_cube ~off ~others:maximally_reduced c in
        let swallowed =
          List.length (List.filter (fun d -> Cube.subsumes e d) maximally_reduced)
        in
        if swallowed >= 2 then Some e else None)
      maximally_reduced
  in
  if news = [] then f
  else irredundant ~dc (Cover.single_cube_containment (Cover.of_cubes n (Cover.cubes f @ news)))

(* ------------------------------------------------------------------ *)
(* The espresso loop                                                  *)
(* ------------------------------------------------------------------ *)

let cost_pair f = (Cover.size f, Cover.literal_cost f)

let minimise ?(budget = Budget.none) ?(telemetry = Telemetry.null) ?(mode = Normal)
    ~on ~dc () =
  if Cover.nvars on <> Cover.nvars dc then invalid_arg "Espresso.minimise: arity mismatch";
  (* governor deadlines run on the wall clock, so [seconds] must too *)
  let t0 = Budget.Clock.now () in
  let off = Cover.complement (Cover.union on dc) in
  let loops = ref 0 in
  (* every pass preserves the invariant "covers ON, stays in ON ∪ DC", so
     stopping between passes always leaves a valid (merely less
     minimised) cover *)
  let interrupted = ref false in
  let stop () =
    !interrupted
    ||
    if Budget.tick budget Budget.Espresso_loop then begin
      interrupted := true;
      true
    end
    else false
  in
  let pass f =
    incr loops;
    Telemetry.incr telemetry "espresso.loops";
    Telemetry.span telemetry ~index:!loops "espresso-pass" (fun () ->
        irredundant ~dc (expand ~off (reduce ~dc f)))
  in
  let rec converge f =
    if stop () then f
    else
      let f' = pass f in
      if cost_pair f' < cost_pair f then converge f' else f
  in
  let f0 = irredundant ~dc (expand ~off on) in
  let f1 = converge f0 in
  let final =
    match mode with
    | Normal -> f1
    | Strong ->
      if stop () then f1
      else
        let g = last_gasp ~off ~dc f1 in
        if cost_pair g < cost_pair f1 then converge g else f1
  in
  {
    cover = final;
    cost = Cover.size final;
    literals = Cover.literal_cost final;
    loops = !loops;
    seconds = Budget.Clock.now () -. t0;
    interrupted = !interrupted;
  }

type pla_result = {
  covers : Cover.t array;
  distinct_products : int;
  total_seconds : float;
  interrupted : bool;
}

let minimise_all ?budget ?(telemetry = Telemetry.null) ?mode pla =
  let t0 = Budget.Clock.now () in
  let interrupted = ref false in
  let covers =
    Array.init pla.Logic.Pla.no (fun k ->
        let on = Logic.Pla.onset pla k in
        if Cover.is_empty on then Cover.empty pla.Logic.Pla.ni
        else begin
          let r =
            Telemetry.span telemetry ~index:k "espresso-output" (fun () ->
                minimise ?budget ~telemetry ?mode ~on ~dc:(Logic.Pla.dcset pla k) ())
          in
          if r.interrupted then interrupted := true;
          r.cover
        end)
  in
  let distinct_products =
    Array.to_list covers
    |> List.concat_map Cover.cubes
    |> List.sort_uniq Cube.compare
    |> List.length
  in
  {
    covers;
    distinct_products;
    total_seconds = Budget.Clock.now () -. t0;
    interrupted = !interrupted;
  }
