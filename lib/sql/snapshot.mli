(** Immutable read snapshot of one shard's logical database state.

    The sharded server keeps one of these per shard in an [Atomic.t]: the
    shard's executor folds every {!Secdb.Encdb.change} into a fresh
    snapshot after each mutation, and reader threads serve point lookups
    from the last published snapshot without ever taking the shard lock —
    a reader can observe a slightly stale (but internally consistent)
    state, never a torn one.

    Rows are held by row id, so a full scan enumerates live rows in
    ascending row order (like {!Secdb_query.Encrypted_table.select}).
    Each exactly-indexed column keeps a value-ordered map (under
    {!Secdb_db.Value.compare}) from each value to the set of rows holding
    it: an equality probe is one lookup, a range costs O(log n + k) for
    [k] matching rows, and maintaining a key costs O(log n + log d) for
    [d] duplicates.  The snapshot does not mirror the order in which an
    index returns duplicates: {!Engine.exec_snapshot} puts every
    candidate set in ascending row order before the shared
    filter/sort/limit tail, exactly as the locked executor does, so a
    query answered here is byte-identical to the same query run through
    the executor. *)

type table_snap
type t

val empty : t

val apply : t -> Secdb.Encdb.change -> t
(** Fold one applied mutation.  Changes for tables the snapshot does not
    know (never primed, e.g. after a failed {!of_db}) are dropped — such
    tables simply stay off the fast path. *)

val of_db : Secdb.Encdb.t -> t
(** Prime a snapshot from live state: decrypt every table once.  A table
    whose scan fails integrity is left out (its queries fall through to
    the locked executor, which reports the canonical error). *)

val table : t -> string -> table_snap option
val schema : table_snap -> Secdb_db.Schema.t

val all_rows : table_snap -> (int * Secdb_db.Value.t array) list
(** Live rows, ascending row order — the full-scan candidate set. *)

val index_probe :
  table_snap -> col:int -> Secdb_db.Value.t -> (int * Secdb_db.Value.t array) list option
(** [None] when the column has no exact index (caller falls back to
    {!all_rows}); otherwise the rows whose value equals the probe, in
    ascending row order.  One map lookup, no per-probe encoding. *)

val index_range :
  table_snap ->
  col:int ->
  lo:Secdb_db.Value.t ->
  hi:Secdb_db.Value.t ->
  (int * Secdb_db.Value.t array) list option
(** [None] when the column has no exact index; otherwise the rows with
    [lo <= v <= hi] under {!Secdb_db.Value.compare}, value ascending and
    row ascending within a value.  Seeks to [lo] and stops at the first
    key above [hi], so it costs O(log n + k); [lo > hi] yields [[]].
    (Bucketized range indexes need no snapshot mirror: their candidate
    order is {!all_rows}'s.) *)
