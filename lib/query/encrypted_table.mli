(** Tables whose protected columns are stored under a cell encryption
    scheme.

    The structure of the table — row count, column positions, clear
    columns — is preserved exactly as in the analysed scheme; only cell
    contents change.  The adversary-facing accessors ([raw_ciphertext],
    [set_raw], [swap_cells]) model an attacker reading and writing the
    storage below the DBMS, bypassing access control. *)

type t

val create :
  id:int -> Secdb_db.Schema.t -> scheme:(int -> Secdb_schemes.Cell_scheme.t) -> t
(** [scheme col] picks the cell scheme protecting column [col] — the
    analysed scheme's own rule is per-column: the Append-Scheme "whenever
    there is not enough redundancy in the allowed type of data" for the
    XOR-Scheme.  Pass [Fun.const s] for a uniform choice. *)

val id : t -> int
val schema : t -> Secdb_db.Schema.t
val scheme : t -> col:int -> Secdb_schemes.Cell_scheme.t
val nrows : t -> int

val insert : t -> Secdb_db.Value.t list -> int
(** Type-checks against the schema, encrypts protected cells, appends. *)

val insert_many : ?pool:Secdb_util.Pool.t -> t -> Secdb_db.Value.t list list -> unit
(** Whole-table encrypt: type-check every row, then encrypt each protected
    column's cells in one batch sweep and append the rows in order.  With a
    pool, columns whose scheme is [parallel_safe] fan their cells out
    across domains; the stored bytes are identical to a sequential
    [insert] loop either way (cell addresses are assigned before
    encryption, and parallel-safe schemes are order-independent by
    definition).  Raises before any row is appended if validation fails. *)

val decrypt_column :
  ?pool:Secdb_util.Pool.t ->
  t ->
  col:int ->
  (Secdb_db.Value.t, string) result option array
(** Whole-column decrypt (and integrity check): index [row] holds [None]
    for tombstoned rows, [Some (Error _)] for cells failing the scheme's
    check.  Protected cells are decrypted in one batch sweep, parallel
    when the pool and scheme allow, with results in row order. *)

val get : t -> row:int -> col:int -> (Secdb_db.Value.t, string) result
(** Decrypts (and integrity-checks) protected cells. *)

val get_exn : t -> row:int -> col:int -> Secdb_db.Value.t
(** @raise Failure when the cell fails to decrypt. *)

val update : t -> row:int -> col:int -> Secdb_db.Value.t -> unit
(** Re-encrypts the cell in place (fresh nonce under the fixed scheme). *)

val delete_row : t -> row:int -> unit
(** Leave a tombstone in a row.  Because every cell's protection is bound
    to its (t, r, c) address, rows can never be compacted or renumbered
    without re-encrypting everything below them — deletion therefore
    marks the row dead and later reads fail.  Idempotent. *)

val is_live : t -> row:int -> bool

val select : t -> (Secdb_db.Value.t array -> bool) -> (int * Secdb_db.Value.t array) list
(** Decrypting full scan.
    @raise Failure when any visited cell fails integrity. *)

val select_result :
  t ->
  (Secdb_db.Value.t array -> bool) ->
  ((int * Secdb_db.Value.t array) list, string) result
(** Decrypting full scan; [Error] on the first cell failing integrity. *)

(* Adversary interface *)

val raw_ciphertext : t -> row:int -> col:int -> string option
(** Stored bytes of a protected cell ([None] for clear columns). *)

val set_raw : t -> row:int -> col:int -> string -> unit
(** Overwrite a protected cell's stored bytes without any check. *)

val swap_cells : t -> col:int -> row_a:int -> row_b:int -> unit
(** Exchange the stored bytes of two protected cells — the relocation move
    of the paper's substitution attack. *)

val storage_bytes : t -> col:int -> int
(** Total stored bytes of a protected column (experiment EXP7). *)

val plaintext_bytes : t -> col:int -> int
(** Total plaintext bytes of the same column, for overhead accounting. *)

(** {2 Storage-level view}

    The stored representation of a row: clear values in the clear,
    protected cells as ciphertext bytes — what the untrusted storage holds
    and what {!Secdb_storage} serialises. *)

type stored_cell = Stored_clear of Secdb_db.Value.t | Stored_cipher of string

val dump_rows : t -> stored_cell array option list
(** All rows in order, as stored; [None] marks a tombstoned row (row
    numbers must survive serialisation for the address binding). *)

val restore :
  id:int ->
  Secdb_db.Schema.t ->
  scheme:(int -> Secdb_schemes.Cell_scheme.t) ->
  rows:stored_cell array option list ->
  (t, string) result
(** Rebuild a table from its stored representation.  Checks arity and the
    clear/cipher layout against the schema, but deliberately not ciphertext
    integrity — tampering surfaces on the next {!get}. *)
