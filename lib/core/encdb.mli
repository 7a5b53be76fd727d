(** High-level encrypted database: the system of [3]/[12] and its fixed
    counterpart behind one API.

    An {!t} bundles a session keyring, a set of encrypted tables and their
    encrypted indexes.  The [profile] selects which of the paper's schemes
    protects cells and index entries:

    - [Elovici_append] — Append-Scheme cells (eq. 2) + the [3] index
      scheme (eqs. 4, 5), everything CBC with zero IV: the instantiation
      the paper's Section 3.1/3.2 attacks break.
    - [Elovici_xor] — XOR-Scheme cells (eq. 1) + [3] index.  Faithful to
      the paper including its lossiness: values whose encoding is shorter
      than µ's width (16 bytes) decrypt zero-extended.
    - [Shmueli_improved] — Append-Scheme cells + the improved [12] index
      (eq. 7) with E and OMAC under the {e same key}: Section 3.3's
      counter-example.
    - [Shmueli_repaired_keys] — [12] with an independent MAC key; immune
      to the same-key interaction but still pattern-matchable (EXP5).
    - [Fixed aead] — the paper's Section 4 AEAD constructions for both
      cells and index.

    All profiles expose the same query API, so the experiments can measure
    identical workloads across them.

    Every exact index is an in-memory {!Secdb_index.Bptree}; what reaches
    disk is sealed where it crosses the storage boundary — the {!Oplog}
    records and the {!save} / {!save_paged} images. *)

type fixed_aead = Eax | Ocb | Ccfb | Etm | Gcm | Siv

type profile =
  | Elovici_append
  | Elovici_xor
  | Shmueli_improved
  | Shmueli_repaired_keys
  | Fixed of fixed_aead
  | Siv_deterministic
      (** AES-SIV with a constant nonce: {e deterministic} authenticated
          encryption.  Equal values in a column produce equal stored cells —
          the analysed scheme's searchability property — while forgery,
          relocation and prefix pattern matching all still fail.  The
          principled answer to the paper's determinism assumption, measured
          by experiment EXP15. *)

val profile_name : profile -> string

val all_profiles : profile list

type t

(** One applied mutation, as observed through {!set_on_change} — enough
    to replay the database's logical state (the serving layer folds these
    into lock-free read snapshots). *)
type change =
  | Created_table of Secdb_db.Schema.t
  | Created_index of { table : string; col : string }
  | Created_range_index of { table : string; col : string; buckets : int }
      (** [buckets] rides along so a replica rebuilding from the change
          stream partitions the range index identically. *)
  | Inserted of { table : string; row : int; values : Secdb_db.Value.t list }
  | Updated of { table : string; row : int; col : string; value : Secdb_db.Value.t }
  | Deleted of { table : string; row : int }

val create :
  ?seed:int64 ->
  ?order:int ->
  ?first_table_id:int ->
  ?first_index_id:int ->
  master:string ->
  profile:profile ->
  unit ->
  t
(** [seed] drives every pseudo-random choice (nonces, the random numbers a)
    for reproducibility; [order] is the B⁺-tree order (default 4).
    [first_table_id] /
    [first_index_id] start the id counters (defaults 1 and 1000) — shards
    of one logical database use disjoint ranges so derived keys and
    ciphertext addresses never collide across shards. *)

val set_on_change : t -> (change -> unit) option -> unit
(** Install (or clear) a hook fired after every successful mutation, in
    apply order.  No hook, no overhead. *)

val profile : t -> profile
val keyring : t -> Keyring.t

val close : t -> unit
(** End the secure session: wipes keys; subsequent cryptographic operations
    raise {!Keyring.Session_closed}. *)

val create_table : t -> Secdb_db.Schema.t -> unit
(** Register a table under its schema's name.
    @raise Invalid_argument on duplicate names. *)

val table : t -> string -> Secdb_query.Encrypted_table.t
(** @raise Not_found for unknown tables. *)

val table_names : t -> string list
(** All table names, sorted — what a serving layer enumerates to prime its
    read snapshots. *)

val live_rows : t -> table:string -> int
(** Live (non-tombstoned) row count, maintained incrementally on every
    insert and delete and recounted on load — the SQL cost model's
    cardinality input.  Mirrored into the [db.rows{table}] gauge while
    {!Secdb_obs.Obs.on}, so [secdb stats] shows what the planner saw.
    [0] for unknown tables. *)

val create_index : t -> table:string -> col:string -> unit
(** Build an encrypted index over an (encrypted) column, inserting all
    existing rows.  Later {!insert}s maintain it. *)

val has_index : t -> table:string -> col:string -> bool
(** Whether the column has an exact index — what the SQL planner
    consults. *)

val index : t -> table:string -> col:string -> Secdb_index.Bptree.t
(** The tree behind an exact index.
    @raise Not_found if no such index exists. *)

val index_selectivity :
  t ->
  table:string ->
  col:string ->
  lo:Secdb_db.Value.t option ->
  hi:Secdb_db.Value.t option ->
  float option
(** Estimated fraction of the column's values inside the inclusive range,
    from a per-index {!Secdb_query.Histogram} maintained on every mutation
    (rebuilt by decryption on {!load}).  [None] if the column has no
    index.  Consulted by the SQL planner. *)

(** {2 Bucketized range indexes}

    The ESEDS-style structure of {!Secdb_index.Range_tree}: plaintext
    bucket boundaries over AEAD-sealed entries, the deliberate trade of
    bucket-granular order leakage for sub-scan range queries.  Unlike the
    exact B⁺-tree index (whose node structure reveals the full plaintext
    order to storage), the leakage here is capped by the bucket count —
    {!Secdb_attacks.Range_leak} measures it and CI pins the bound.  Range
    indexes live in memory only; they are not persisted by {!save} /
    {!save_paged} and must be re-created after {!load}. *)

val create_range_index : t -> table:string -> col:string -> ?buckets:int -> unit -> unit
(** Build a bucketized range index over a column: decrypt the column once,
    cut the domain at the data's quantiles (default 16 buckets), seal every
    (value, row) entry into its bucket.  Later mutations maintain it.
    @raise Invalid_argument on a duplicate range index or [buckets < 1]. *)

val has_range_index : t -> table:string -> col:string -> bool

val range_index_nbuckets : t -> table:string -> col:string -> int option
(** Bucket count of the column's range index — the planner's leakage/cost
    datum, surfaced by EXPLAIN. *)

val range_index : t -> table:string -> col:string -> Secdb_index.Range_tree.t
(** The structure itself, exposed for the attack bench and tests.
    @raise Not_found if no range index exists. *)

val select_range_bucketed :
  t ->
  table:string ->
  col:string ->
  ?lo:Secdb_db.Value.t ->
  ?hi:Secdb_db.Value.t ->
  unit ->
  ((int * Secdb_db.Value.t array) list, string) result
(** Inclusive range query through the bucketized index: unseal the
    overlapping buckets, filter exactly, fetch matching rows (ascending
    row order — a full scan's visible order, so the SQL planner can use
    either without changing result bytes).  [Error] on integrity failure
    or when the column has no range index. *)

val insert : t -> table:string -> Secdb_db.Value.t list -> int
(** Insert a row, updating all indexes on the table; returns the row. *)

val update :
  t -> table:string -> row:int -> col:string -> Secdb_db.Value.t -> (unit, string) result
(** Re-encrypt one cell (fresh nonce under the fixed profiles) and maintain
    any index on the column.  [Error] if the stored cell fails integrity
    when reading the old value. *)

val delete_row : t -> table:string -> row:int -> (unit, string) result
(** Mark a row dead (a tombstone) and remove its entries from every
    index.  Row numbers are never reused — the schemes bind ciphertexts
    to (t, r, c), so compaction would force a full re-encryption (see
    {!Secdb_query.Encrypted_table.delete_row}). *)

val save_paged : t -> path:string -> ?page_size:int -> ?vfs:Secdb_storage.Vfs.t -> unit -> unit
(** Persist the whole database into a single {!Secdb_storage.Pager} file:
    a directory blob plus one blob per table and per index.  Same contract
    as {!save}, different storage system. *)

val load_paged :
  ?seed:int64 ->
  ?order:int ->
  ?cache_pages:int ->
  ?vfs:Secdb_storage.Vfs.t ->
  master:string ->
  profile:profile ->
  path:string ->
  unit ->
  (t, string) result

val digest : t -> string
(** Constant-size Merkle anchor over the complete stored representation —
    every row (tombstones included) of every table and every node of every
    index.  Per-cell AEAD cannot detect suppression of whole rows or a
    rollback to an older snapshot (experiment EXP22); keeping this digest
    out of band (with the master key) closes that gap: recompute after
    {!load} and compare. *)

val rotate_master : t -> new_master:string -> t
(** Key rotation: decrypt every cell and index entry under the current
    session and re-encrypt everything under keys derived from
    [new_master], returning a new session over the rotated data.  The old
    session is closed.  @raise Failure if any stored data fails integrity
    (rotation must not silently launder tampered data). *)

val select_eq :
  t ->
  table:string ->
  col:string ->
  ?mode:Secdb_query.Walker.mode ->
  Secdb_db.Value.t ->
  ((int * Secdb_db.Value.t array) list, string) result
(** Equality query.  Uses the column's encrypted index when one exists
    (through {!Secdb_query.Walker}, honouring [mode], default [Corrected]),
    otherwise a decrypting full scan.  Matching rows are returned fully
    decrypted; [Error] reports integrity failures. *)

val select_range :
  t ->
  table:string ->
  col:string ->
  ?mode:Secdb_query.Walker.mode ->
  ?lo:Secdb_db.Value.t ->
  ?hi:Secdb_db.Value.t ->
  unit ->
  ((int * Secdb_db.Value.t array) list, string) result
(** Inclusive range query; requires an index on the column. *)

(** {2 Persistence}

    The database's stored representation — clear structure, encrypted
    payloads, no keys — written through {!Secdb_storage.Storage}.  This is
    the artefact of the paper's threat model: copying the directory is the
    storage adversary's read access, editing it their write access. *)

val save : t -> dir:string -> unit
(** Write a manifest plus one file per table and per index into [dir]
    (created if missing).  @raise Sys_error on I/O failure. *)

val load :
  ?seed:int64 ->
  ?order:int ->
  master:string ->
  profile:profile ->
  dir:string ->
  unit ->
  (t, string) result
(** Reopen a saved database with a fresh session.  [master] and [profile]
    must match the saving session or every decryption will fail (there is
    deliberately no way to tell a wrong key from tampered data).  Pass a
    [seed] not used by any earlier session over the same data: it drives
    nonce generation, and the fixed schemes need fresh nonces for future
    writes. *)
