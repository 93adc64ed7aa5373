(** Plain-text covering instances.

    A small exchange format for raw UCP matrices (the pure-matrix
    benchmarks of Tables 1–4 and user-supplied problems):

    {v
      # comment
      p ucp <n_rows> <n_cols>
      c <cost_0> <cost_1> ... <cost_{n_cols-1}>     (optional; default 1)
      r <col> <col> ...                             (one line per row)
    v}

    All parsers stream their input through {!Logic.Reader}: the
    [*_file] entry points never materialize the file (peak parser
    memory is one chunk buffer plus the current line), positions in
    errors are 1-based line {e and column}, and an optional [budget] is
    checkpointed as the parse advances ({!Budget.site.Parse}) so a
    deadline or interrupt aborts mid-file.

    Malformed input raises {!Logic.Parse_error.Parse_error} with a
    position-tagged message (and no other exception); the [*_result]
    entry points return the same information as a [result].
    The normative format specification is [doc/FORMATS.md]. *)

val parse : ?budget:Budget.t -> string -> Matrix.t
(** @raise Logic.Parse_error.Parse_error on malformed input. *)

val parse_file : ?budget:Budget.t -> string -> Matrix.t
(** Streaming; the file is never held in memory whole.
    @raise Logic.Parse_error.Parse_error on malformed input, with the
    error's [file] field set.
    @raise Sys_error if the file cannot be read. *)

val parse_result : ?budget:Budget.t -> string -> (Matrix.t, Logic.Parse_error.error) result

val parse_file_result :
  ?budget:Budget.t -> string -> (Matrix.t, Logic.Parse_error.error) result
(** Exception-free variants; unreadable files land in [Error] (line 0). *)

val to_string : Matrix.t -> string

val output_ucp : out_channel -> Matrix.t -> unit
(** Stream the [.ucp] text to a channel without building it in memory
    (what {!write_file} and [ucp_gen --emit ucp] use). *)

val write_file : string -> Matrix.t -> unit

(** {1 OR-Library format}

    Beasley's scp format (the de-facto standard for set-covering
    instances, cf. the paper's reference [2]): whitespace-separated
    integers — [m n], then [n] column costs, then for each of the [m]
    rows a count followed by that many {e 1-based} column indices. *)

val parse_orlib : ?budget:Budget.t -> string -> Matrix.t
(** @raise Logic.Parse_error.Parse_error on malformed input (wrong
    counts, indices out of range).
    @raise Infeasible.Infeasible on a well-formed instance declaring a
    row with zero covering columns — the format can state infeasibility
    explicitly, and it is a property of the problem, not of the text. *)

val parse_orlib_file : ?budget:Budget.t -> string -> Matrix.t
(** Streaming, like {!parse_file}. *)

val parse_orlib_result :
  ?budget:Budget.t -> string -> (Matrix.t, Logic.Parse_error.error) result

val stream_orlib :
  Logic.Reader.t ->
  dims:(n_rows:int -> n_cols:int -> unit) ->
  cost:(int -> int -> unit) ->
  row:(int -> int list -> unit) ->
  unit
(** Event-style OR-Library parse: [dims] fires once with the header,
    [cost j c] once per column (0-based [j]), [row i cols] once per row
    ({e 1-based} [i], columns re-based to 0).  A consumer that only
    counts runs in O(1) memory over any file size — the property the
    scale benchmarks gate.  Budget checkpoints ride on the reader.
    @raise Logic.Parse_error.Parse_error as {!parse_orlib}.
    @raise Infeasible.Infeasible as {!parse_orlib}. *)

val output_orlib : out_channel -> Matrix.t -> unit
(** Stream the OR-Library text to a channel (inverse of
    {!parse_orlib}; indices re-based to 1). *)

val to_orlib : Matrix.t -> string
(** Inverse of {!parse_orlib} (indices re-based to 1). *)
