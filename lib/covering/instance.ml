module Parse_error = Logic.Parse_error
module Reader = Logic.Reader

(* ------------------------------------------------------------------ *)
(* .ucp format (streaming)                                            *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_reader r =
  let n_rows = ref (-1) and n_cols = ref (-1) in
  let cost = ref None in
  let rows = ref [] and row_count = ref 0 in
  let stop = ref false in
  while not !stop do
    match Reader.next_line r with
    | None -> stop := true
    | Some (raw, lineno) -> (
      let ws = Reader.words (strip_comment raw) in
      let int_of (w, col) = Parse_error.int_of_word ~col ~line:lineno w in
      let fail ?col msg = Parse_error.raise_at ?col ~line:lineno msg in
      match ws with
      | [] -> ()
      | [ ("p", _); ("ucp", _); rw; cw ] ->
        n_rows := int_of rw;
        n_cols := int_of cw;
        if !n_rows < 0 || !n_cols <= 0 then fail ~col:(snd rw) "bad dimensions"
      | ("c", col) :: costs ->
        if !n_cols < 0 then fail ~col "cost line before the p line";
        let parsed = List.map (fun ((_, col) as w) -> (int_of w, col)) costs in
        if List.length parsed <> !n_cols then fail ~col "cost count mismatch";
        List.iter
          (fun (c, col) -> if c <= 0 then fail ~col "non-positive cost")
          parsed;
        cost := Some (Array.of_list (List.map fst parsed))
      | ("r", col) :: cols ->
        if !n_cols < 0 then fail ~col "row line before the p line";
        if cols = [] then fail ~col "empty row";
        let cols =
          List.map
            (fun ((_, col) as w) ->
              let j = int_of w in
              if j < 0 || j >= !n_cols then
                Parse_error.failf ~col ~line:lineno "column %d out of range [0, %d)" j
                  !n_cols;
              j)
            cols
        in
        rows := cols :: !rows;
        incr row_count
      | (_, col) :: _ ->
        fail ~col (Printf.sprintf "unrecognised line %S" (String.trim (strip_comment raw))))
  done;
  if !n_cols < 0 then Parse_error.raise_at ~line:0 "missing p line";
  let rows = List.rev !rows in
  if !n_rows >= 0 && !row_count <> !n_rows then
    Parse_error.failf ~line:0 "p line declares %d rows, found %d" !n_rows !row_count;
  (* in-range and non-empty were checked per line; anything left (duplicate
     column within a row) is a whole-matrix property *)
  try Matrix.create ?cost:!cost ~n_cols:!n_cols rows
  with Invalid_argument m -> Parse_error.raise_at ~line:0 m

let parse ?budget text = parse_reader (Reader.of_string ?budget text)

let with_channel path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_file ?budget path =
  with_channel path (fun ic ->
      Parse_error.with_file path (fun () ->
          parse_reader (Reader.of_channel ?budget ic)))

let parse_result ?budget text = Parse_error.result (fun () -> parse ?budget text)

let parse_file_result ?budget path =
  Parse_error.file_result path (fun path -> parse_file ?budget path)

let output_ucp oc m =
  Printf.fprintf oc "p ucp %d %d\n" (Matrix.n_rows m) (Matrix.n_cols m);
  let uniform = ref true in
  for j = 0 to Matrix.n_cols m - 1 do
    if Matrix.cost m j <> 1 then uniform := false
  done;
  if not !uniform then begin
    output_char oc 'c';
    for j = 0 to Matrix.n_cols m - 1 do
      Printf.fprintf oc " %d" (Matrix.cost m j)
    done;
    output_char oc '\n'
  end;
  for i = 0 to Matrix.n_rows m - 1 do
    output_char oc 'r';
    Array.iter (fun j -> Printf.fprintf oc " %d" j) (Matrix.row m i);
    output_char oc '\n'
  done

let to_string m =
  let buf = Buffer.create 1_024 in
  Buffer.add_string buf
    (Printf.sprintf "p ucp %d %d\n" (Matrix.n_rows m) (Matrix.n_cols m));
  let uniform = ref true in
  for j = 0 to Matrix.n_cols m - 1 do
    if Matrix.cost m j <> 1 then uniform := false
  done;
  if not !uniform then begin
    Buffer.add_char buf 'c';
    for j = 0 to Matrix.n_cols m - 1 do
      Buffer.add_string buf (Printf.sprintf " %d" (Matrix.cost m j))
    done;
    Buffer.add_char buf '\n'
  end;
  for i = 0 to Matrix.n_rows m - 1 do
    Buffer.add_char buf 'r';
    Array.iter (fun j -> Buffer.add_string buf (Printf.sprintf " %d" j)) (Matrix.row m i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_file path m =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_ucp oc m)

(* ------------------------------------------------------------------ *)
(* Beasley OR-Library scp format (streaming)                           *)
(* ------------------------------------------------------------------ *)

(* The format is a bare token stream; every token carries the line and
   column it started on.  End-of-input errors point at the last token
   seen, matching what the legacy whole-file tokenizer reported. *)
let stream_orlib r ~dims ~cost ~row =
  let last_line = ref 0 in
  let next () =
    match Reader.next_token r with
    | Some (w, line, col) ->
      last_line := line;
      Some (Parse_error.int_of_word ~col ~line w, line, col)
    | None -> None
  in
  let eof msg = Parse_error.raise_at ~line:!last_line msg in
  match next () with
  | None -> Parse_error.raise_at ~line:0 "missing dimensions"
  | Some (m, dim_line, dim_col) -> (
    match next () with
    | None -> Parse_error.raise_at ~line:0 "missing dimensions"
    | Some (n, _, _) ->
      if m < 0 || n <= 0 then
        Parse_error.raise_at ~col:dim_col ~line:dim_line "bad dimensions";
      dims ~n_rows:m ~n_cols:n;
      for j = 0 to n - 1 do
        match next () with
        | None -> eof "unexpected end of input"
        | Some (c, line, col) ->
          if c <= 0 then Parse_error.raise_at ~col ~line "non-positive cost";
          cost j c
      done;
      for i = 1 to m do
        match next () with
        | None -> eof "missing row"
        | Some (count, count_line, count_col) ->
          if count < 0 then
            Parse_error.failf ~col:count_col ~line:count_line
              "row %d has a negative column count" i;
          (* a zero count is well-formed data describing a row no column
             covers: semantic infeasibility, not a syntax error *)
          if count = 0 then
            raise (Infeasible.Infeasible { row = i - 1; row_id = i - 1 });
          let cols = ref [] in
          for _ = 1 to count do
            match next () with
            | None -> eof "unexpected end of input"
            | Some (j, line, col) ->
              if j < 1 || j > n then
                Parse_error.failf ~col ~line "row %d column %d out of range" i j;
              cols := (j - 1) :: !cols
          done;
          row i (List.rev !cols)
      done;
      (match next () with
      | Some (_, line, col) -> Parse_error.raise_at ~col ~line "trailing tokens"
      | None -> ()))

let parse_orlib_reader r =
  let costs = ref [||] in
  let rows = ref [] in
  stream_orlib r
    ~dims:(fun ~n_rows:_ ~n_cols -> costs := Array.make n_cols 1)
    ~cost:(fun j c -> !costs.(j) <- c)
    ~row:(fun _ cols -> rows := cols :: !rows);
  try Matrix.create ~cost:!costs ~n_cols:(Array.length !costs) (List.rev !rows)
  with Invalid_argument msg -> Parse_error.raise_at ~line:0 msg

let parse_orlib ?budget text = parse_orlib_reader (Reader.of_string ?budget text)

let parse_orlib_file ?budget path =
  with_channel path (fun ic ->
      Parse_error.with_file path (fun () ->
          parse_orlib_reader (Reader.of_channel ?budget ic)))

let parse_orlib_result ?budget text =
  Parse_error.result (fun () -> parse_orlib ?budget text)

let output_orlib oc m =
  Printf.fprintf oc "%d %d\n" (Matrix.n_rows m) (Matrix.n_cols m);
  for j = 0 to Matrix.n_cols m - 1 do
    Printf.fprintf oc "%d " (Matrix.cost m j)
  done;
  output_char oc '\n';
  for i = 0 to Matrix.n_rows m - 1 do
    let r = Matrix.row m i in
    Printf.fprintf oc "%d\n" (Array.length r);
    Array.iter (fun j -> Printf.fprintf oc "%d " (j + 1)) r;
    output_char oc '\n'
  done

let to_orlib m =
  let buf = Buffer.create 1_024 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Matrix.n_rows m) (Matrix.n_cols m));
  for j = 0 to Matrix.n_cols m - 1 do
    Buffer.add_string buf (Printf.sprintf "%d " (Matrix.cost m j))
  done;
  Buffer.add_char buf '\n';
  for i = 0 to Matrix.n_rows m - 1 do
    let r = Matrix.row m i in
    Buffer.add_string buf (Printf.sprintf "%d\n" (Array.length r));
    Array.iter (fun j -> Buffer.add_string buf (Printf.sprintf "%d " (j + 1))) r;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
