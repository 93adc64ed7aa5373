(** Parsed problems shared across requests, keyed by problem signature.

    The signature of a request is the digest of its format tag and raw
    payload bytes, so byte-identical re-submissions — the repeated or
    near-identical instances a long-running service actually sees — hit
    the same entry.  An entry memoizes the {e parsed} problem (for PLA
    payloads that includes the computed multi-output primes, the
    expensive part) and nothing else: every request solves from scratch
    with {!Scg.solve}, so its answer is the one [ucp_solve] gives for the
    same bytes, whatever ran before it or alongside it.

    Thread-safety: the table is mutex-protected; parsing happens outside
    the lock.  A parsed problem is immutable under [Scg.solve] and may
    be shared by concurrent requests.

    Crash isolation: {!invalidate} drops one signature's entry, so a
    request that died on this input cannot poison the next one, while
    every other signature keeps its entry (per-signature, not global,
    invalidation). *)

type problem =
  | P_matrix of Covering.Matrix.t  (** [.ucp] / OR-Library payloads *)
  | P_multi of Logic.Pla.t * Covering.From_logic.multi
      (** a PLA payload with its memoized multi-output prime bridge *)
  | P_kiss of Fsm.Machine.t

type t

val create : capacity:int -> t
(** [capacity] bounds the entry count; beyond it the least-recently-used
    entry is evicted.  A request solving with an evicted problem keeps
    its own reference to it. *)

type checkout = {
  problem : problem;
  hit : bool;  (** the signature was already cached *)
}

val checkout :
  t ->
  digest:string ->
  parse:(unit -> (problem, Logic.Parse_error.error) result) ->
  (checkout, Logic.Parse_error.error) result
(** Look up [digest], calling [parse] (outside the lock) on a miss.
    Parse failures are returned, not cached.  [parse] may raise
    {!Covering.Infeasible}; it propagates. *)

val invalidate : t -> digest:string -> unit
(** Drop one signature's entry. *)

val stats : t -> (string * int) list
(** [hits], [misses], [entries], [invalidations], [evictions] — fed
    into the daemon's [STATS] response. *)
