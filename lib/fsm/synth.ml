let state_bits m =
  let n = Machine.n_states m in
  let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
  max 1 (go 0)

let code_string ~bits s = String.init bits (fun b -> if (s lsr b) land 1 = 1 then '1' else '0')

let to_pla (m : Machine.t) =
  let n = Machine.n_states m in
  if n = 0 then invalid_arg "Synth.to_pla: no states";
  let bits = state_bits m in
  let ni' = m.Machine.ni + bits in
  let no' = bits + m.Machine.no in
  let rows = ref [] in
  let add input_str out_str =
    rows := (Logic.Cube.of_string input_str, out_str) :: !rows
  in
  (* transition rows *)
  List.iter
    (fun tr ->
      let input_str =
        Logic.Cube.to_string tr.Machine.input ^ code_string ~bits tr.Machine.source
      in
      let next_str =
        match tr.Machine.next with
        | Some t -> code_string ~bits t
        | None -> String.make bits '-'
      in
      add input_str (next_str ^ tr.Machine.output))
    m.Machine.transitions;
  (* don't-care rows: the input holes of every state (combinations no
     transition mentions) and the unused state codes *)
  for s = 0 to n - 1 do
    let cubes =
      List.filter_map
        (fun tr -> if tr.Machine.source = s then Some tr.Machine.input else None)
        m.Machine.transitions
    in
    let holes = Logic.Cover.complement (Logic.Cover.of_cubes m.Machine.ni cubes) in
    List.iter
      (fun hole ->
        add (Logic.Cube.to_string hole ^ code_string ~bits s) (String.make no' '-'))
      (Logic.Cover.cubes holes)
  done;
  for code = n to (1 lsl bits) - 1 do
    add (String.make m.Machine.ni '-' ^ code_string ~bits code) (String.make no' '-')
  done;
  {
    Logic.Pla.ni = ni';
    no = no';
    kind = Logic.Pla.FD;
    input_labels =
      Array.init ni' (fun i ->
          if i < m.Machine.ni then Printf.sprintf "x%d" i
          else Printf.sprintf "q%d" (i - m.Machine.ni));
    output_labels =
      Array.init no' (fun k ->
          if k < bits then Printf.sprintf "q%d'" k else Printf.sprintf "z%d" (k - bits));
    rows = List.rev !rows;
  }

let simulate_pla pla ~n_inputs ~state_bits ~state ~input =
  let minterm = input lor (state lsl n_inputs) in
  let bit k = if Logic.Cover.eval_minterm (Logic.Pla.onset pla k) minterm then 1 else 0 in
  let next = ref 0 in
  for b = 0 to state_bits - 1 do
    next := !next lor (bit b lsl b)
  done;
  let output =
    String.init
      (pla.Logic.Pla.no - state_bits)
      (fun k -> if bit (state_bits + k) = 1 then '1' else '0')
  in
  (!next, output)

let implement ?config m =
  let pla = to_pla m in
  if Logic.Multi.rows pla = [] then
    (* no output bit is ever 1 (every next state is code 0 and every
       output 0): the PLA with no rows implements the machine, and its
       covering problem is the empty one, solved at cost 0 *)
    let r = Scg.solve ?config (Covering.Matrix.create ~n_cols:0 []) in
    ({ pla with Logic.Pla.rows = [] }, r)
  else
    let r, bridge = Scg.solve_pla_multi ?config pla in
    let out = Covering.From_logic.pla_of_multi_solution pla bridge r.Scg.solution in
    (out, r)
