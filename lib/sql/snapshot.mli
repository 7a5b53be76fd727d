(** Immutable read snapshot of one shard's logical database state.

    The sharded server keeps one of these per shard in an [Atomic.t]: the
    shard's executor folds every {!Secdb.Encdb.change} into a fresh
    snapshot after each mutation, and reader threads answer every SELECT
    (JOINs included) from the last published snapshot through
    {!Engine.exec_snapshot}, without ever waiting for the executor —
    a reader can observe a slightly stale (but internally consistent)
    state, never a torn one.

    Rows are held by row id, so a full scan enumerates live rows in
    ascending row order (like {!Secdb_query.Encrypted_table.select}).
    Each exactly-indexed column keeps a value-ordered map (under
    {!Secdb_db.Value.compare}) from each value to the set of rows holding
    it: a seek — equality, BETWEEN or a one-sided bound — costs
    O(log n + k) for [k] matching rows, and maintaining a key costs
    O(log n + log d) for [d] duplicates.  The snapshot does not mirror the order in which an
    index returns duplicates: {!Engine.exec_snapshot} puts every
    candidate set in ascending row order before the shared
    filter/sort/limit tail, exactly as the locked executor does, so a
    query answered here is byte-identical to the same query run through
    the executor.

    Threat model: a snapshot is authenticated {e plaintext} — every value
    passed its AEAD check when it was decrypted (by {!of_db}) or was the
    plaintext of an applied mutation — held in server RAM, in the same
    address space as the master key.  It is never written to disk, the
    wire or the oplog. *)

type table_snap
type t

val empty : t

val apply : t -> Secdb.Encdb.change -> t
(** Fold one applied mutation.  Changes for tables the snapshot does not
    know (never primed, e.g. after a failed {!of_db}) are dropped — such
    tables simply stay off the snapshot path. *)

val of_db : Secdb.Encdb.t -> t
(** Prime a snapshot from live state: decrypt every table once.  A table
    whose scan fails integrity is left out (its queries fall through to
    the locked executor, which reports the canonical error). *)

val table : t -> string -> table_snap option
val schema : table_snap -> Secdb_db.Schema.t

val all_rows : table_snap -> (int * Secdb_db.Value.t array) list
(** Live rows, ascending row order — the full-scan candidate set. *)

val has_index : table_snap -> col:string -> bool
(** Whether the column keeps a value-ordered key map — true exactly for
    the columns with an exact index in the live database.
    @raise Not_found on an unknown column. *)

val index_range :
  table_snap ->
  col:string ->
  ?lo:Secdb_db.Value.t ->
  ?hi:Secdb_db.Value.t ->
  unit ->
  (int * Secdb_db.Value.t array) list option
(** [None] when the column has no exact index; otherwise the rows with
    [lo <= v <= hi] under {!Secdb_db.Value.compare}, value ascending and
    row ascending within a value.  A missing bound leaves that side open,
    so [<], [>], [<=] and [>=] seek as well as [=] and BETWEEN.  Seeks to
    [lo] and stops at the first key above [hi], so it costs O(log n + k);
    [lo > hi] yields [[]].  (Bucketized range indexes need no snapshot
    mirror: their candidate order is {!all_rows}'s.)
    @raise Not_found on an unknown column. *)
