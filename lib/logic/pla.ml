type kind =
  | F
  | FD
  | FR
  | FDR

type t = {
  ni : int;
  no : int;
  kind : kind;
  input_labels : string array;
  output_labels : string array;
  rows : (Cube.t * string) list;
}

let kind_of_string ?col ~line = function
  | "f" -> F
  | "fd" -> FD
  | "fr" -> FR
  | "fdr" -> FDR
  | s -> Parse_error.failf ?col ~line "unsupported .type %S" s

let string_of_kind = function
  | F -> "f"
  | FD -> "fd"
  | FR -> "fr"
  | FDR -> "fdr"

let default_labels prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_reader r =
  let ni = ref (-1)
  and no = ref (-1)
  and kind = ref FD
  and ilb = ref None
  and ob = ref None
  and rows = ref [] in
  let stop = ref false in
  while not !stop do
    match Reader.next_line r with
    | None -> stop := true
    | Some (raw, lineno) -> (
      let ws = Reader.words (strip_comment raw) in
      let fail ?col msg = Parse_error.raise_at ?col ~line:lineno msg in
      let int_of (w, col) = Parse_error.int_of_word ~col ~line:lineno w in
      match ws with
      | [] -> ()
      | (first, first_col) :: _ when first.[0] = '.' -> (
        let line = String.trim (strip_comment raw) in
        match ws with
        | [ (".i", _); n ] -> ni := int_of n
        | [ (".o", _); n ] -> no := int_of n
        (* the product count is advisory, as in espresso *)
        | [ (".p", _); n ] -> ignore (int_of n)
        | [ (".type", _); (k, kcol) ] -> kind := kind_of_string ~col:kcol ~line:lineno k
        | (".ilb", _) :: labels -> ilb := Some (Array.of_list (List.map fst labels))
        | (".ob", _) :: labels -> ob := Some (Array.of_list (List.map fst labels))
        | [ (".e", _) ] | [ (".end", _) ] -> ()
        | (".phase", _) :: _ | (".pair", _) :: _ | (".symbolic", _) :: _ ->
          fail ~col:first_col "unsupported directive"
        | _ -> fail ~col:first_col (Printf.sprintf "unrecognised directive %S" line))
      | ws -> (
        let first_col = snd (List.hd ws) in
        if !ni < 0 then fail ~col:first_col ".i must precede cube lines";
        if !no < 0 then fail ~col:first_col ".o must precede cube lines";
        match ws with
        | [ (input, icol); (output, ocol) ] when !no > 0 ->
          if String.length input <> !ni then fail ~col:icol "input plane width mismatch";
          if String.length output <> !no then
            fail ~col:ocol "output plane width mismatch";
          let cube =
            try Cube.of_string input
            with Invalid_argument m -> fail ~col:icol m
          in
          String.iteri
            (fun k c ->
              match c with
              | '0' | '1' | '-' | '~' -> ()
              | _ -> fail ~col:(ocol + k) "invalid output plane character")
            output;
          rows := (cube, output) :: !rows
        | [ (input, icol) ] when !no = 0 ->
          (try ignore (Cube.of_string input)
           with Invalid_argument m -> fail ~col:icol m);
          fail ~col:icol "zero-output PLA has no function to read"
        | _ -> fail ~col:first_col "expected `<input-plane> <output-plane>'"))
  done;
  if !ni < 0 then Parse_error.raise_at ~line:0 "missing .i";
  if !no < 0 then Parse_error.raise_at ~line:0 "missing .o";
  let rows = List.rev !rows in
  {
    ni = !ni;
    no = !no;
    kind = !kind;
    input_labels = (match !ilb with Some l -> l | None -> default_labels "x" !ni);
    output_labels = (match !ob with Some l -> l | None -> default_labels "f" !no);
    rows;
  }

let parse ?budget text = parse_reader (Reader.of_string ?budget text)
let parse_result ?budget text = Parse_error.result (fun () -> parse ?budget text)

let parse_file ?budget path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Parse_error.with_file path (fun () -> parse_reader (Reader.of_channel ?budget ic)))

let parse_file_result ?budget path =
  Parse_error.file_result path (fun path -> parse_file ?budget path)

let to_string t =
  let buf = Buffer.create 1_024 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" t.ni t.no);
  Buffer.add_string buf (Printf.sprintf ".type %s\n" (string_of_kind t.kind));
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length t.rows));
  List.iter
    (fun (cube, out) ->
      Buffer.add_string buf (Cube.to_string cube);
      Buffer.add_char buf ' ';
      Buffer.add_string buf out;
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let select t k wanted =
  Cover.of_cubes t.ni
    (List.filter_map
       (fun (cube, out) -> if List.mem out.[k] wanted then Some cube else None)
       t.rows)

let onset t k = select t k [ '1' ]

let dcset t k =
  match t.kind with
  | FD | FDR -> select t k [ '-'; '~' ]
  | F | FR -> Cover.empty t.ni

let offset t k =
  match t.kind with
  | FR | FDR -> select t k [ '0' ]
  | F | FD -> Cover.complement (Cover.union (onset t k) (dcset t k))

let single_output ~ni ~on ~dc =
  if Cover.nvars on <> ni || Cover.nvars dc <> ni then
    invalid_arg "Pla.single_output: arity mismatch";
  let rows =
    List.map (fun c -> (c, "1")) (Cover.cubes on)
    @ List.map (fun c -> (c, "-")) (Cover.cubes dc)
  in
  {
    ni;
    no = 1;
    kind = FD;
    input_labels = default_labels "x" ni;
    output_labels = default_labels "f" 1;
    rows;
  }
