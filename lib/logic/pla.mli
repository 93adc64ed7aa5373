(** Berkeley PLA file format (espresso input language).

    Supports the directives used across the Berkeley two-level benchmark
    set: [.i], [.o], [.p], [.ilb], [.ob], [.type f|fd|fr|fdr], [.e]/[.end],
    comments ([#]), and cube lines with input plane over ['0' '1' '-' '~']
    and output plane over ['0' '1' '-' '~'].

    Semantics per output [k] under the declared type:
    - [f]   : ['1'] → ON; anything else → OFF.
    - [fd]  : ['1'] → ON, ['-'] → DC, ['0'] → unspecified (OFF).
    - [fr]  : ['1'] → ON, ['0'] → OFF, ['-'] → unspecified.
    - [fdr] : ['1'] → ON, ['0'] → OFF, ['-'] → DC.  *)

type kind =
  | F
  | FD
  | FR
  | FDR

type t = {
  ni : int;  (** number of inputs *)
  no : int;  (** number of outputs *)
  kind : kind;
  input_labels : string array;
  output_labels : string array;
  rows : (Cube.t * string) list;
      (** each row: input cube and its output plane (length [no]) *)
}

val parse : ?budget:Budget.t -> string -> t
(** Parse PLA text (streamed through {!Reader}; [budget] is
    checkpointed per line).
    @raise Parse_error.Parse_error with a line/column-tagged message on
    malformed input (and nothing else). *)

val parse_file : ?budget:Budget.t -> string -> t
(** Like {!parse}, streaming the file (never materialized whole), with
    the error's [file] field set.
    @raise Sys_error if the file cannot be read. *)

val parse_result : ?budget:Budget.t -> string -> (t, Parse_error.error) result
(** Exception-free {!parse}. *)

val parse_file_result : ?budget:Budget.t -> string -> (t, Parse_error.error) result
(** Exception-free {!parse_file}; unreadable files land in [Error] too
    (line 0). *)

val to_string : t -> string
(** Render back to PLA text (canonical layout). *)

val onset : t -> int -> Cover.t
(** [onset pla k]: cover of output [k]'s ON-set. *)

val dcset : t -> int -> Cover.t
(** Don't-care cover of output [k] (empty for types [f] and [fr]). *)

val offset : t -> int -> Cover.t
(** OFF-set cover: explicit rows for [fr]/[fdr], complement of ON ∪ DC
    otherwise. *)

val single_output : ni:int -> on:Cover.t -> dc:Cover.t -> t
(** Wrap a single-output function (type [fd]). *)

