(** Flat node store of the decision-diagram engines ({!Bdd}, {!Zdd}).

    A node is an int: [0] and [1] are the two constants, internal nodes
    are numbered from [2] in creation order, and a number freed by
    {!release} is handed out again by a later {!find_or_add}.  The node
    arrays, the unique table and the operation caches ({!Cache}) are
    plain int arrays, so no node is a heap block the OCaml GC has to
    promote or mark.  Each engine keeps one store per domain; a number
    means something only in the store that issued it.

    Fields are readable so that the engines' recursions read a node
    without a call; only this module writes them. *)

type t = private {
  mutable var : int array;
      (** [var.(n)]: node [n]'s variable; [max_int] on the constants,
          [-1] on a free number *)
  mutable hi : int array;  (** [hi.(n)]: node [n]'s then-child *)
  mutable lo : int array;  (** [lo.(n)]: node [n]'s else-child *)
  mutable next : int;  (** every number below [next] was handed out *)
  mutable free : int array;
  mutable n_free : int;
  mutable live : int;  (** internal nodes in the unique table *)
  mutable slots : int array;
  mutable shift : int;
  mutable stamp : int array;
  mutable epoch : int;  (** see {!visit} *)
}

val create : initial_size:int -> t
(** A store with room for [max 16 initial_size] numbers and a unique
    table of twice that many slots (rounded up to a power of two).  The
    node arrays double when full and the unique table doubles when more
    than half full. *)

val find_or_add : t -> int -> int -> int -> int
(** [find_or_add st v hi lo] is the node [(v, hi, lo)], created (with a
    freed number first, else [next]) when the unique table does not
    hold it.  The engines apply their reduction rule before calling. *)

val release : t -> int -> unit
(** Free a node's number; the caller calls {!rehash} after a batch of
    releases, before any other operation. *)

val rehash : t -> unit
(** Rebuild the unique table from the live nodes. *)

val new_epoch : t -> unit
(** Start a traversal: no node is visited. *)

val visit : t -> int -> bool
(** [visit st n] marks [n] visited in the current traversal and says
    whether it was not visited yet. *)

(** Exact operation caches: open-addressed tables from one or two node
    numbers to a node number, kept at most half full and never evicting
    an entry. *)
module Cache : sig
  type t

  val create : unit -> t
  (** An empty cache of 64 slots. *)

  val find : t -> int -> int -> int
  (** [find c a b] is the value stored under [(a, b)], or [-1].
      One-operand caches pass [b = 0]. *)

  val add : t -> int -> int -> int -> unit
  (** [add c a b r] stores [r] under [(a, b)]. *)

  val clear : t -> unit
  (** Remove every entry and shrink back to the starting size. *)
end
