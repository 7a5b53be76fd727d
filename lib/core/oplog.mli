(** Encrypted, replay-protected, crash-recoverable operation log.

    The schemes protect data {e at rest}; a deployment also ships changes —
    backups, replication, audit.  This module appends each mutation as an
    AEAD record whose associated data is its sequence number, so records
    cannot be reordered, spliced from another log, or modified; together
    with the out-of-band record count (keep it with the master key, like
    the {!Encdb.digest} anchor) truncation is caught too.

    Durability is explicit: every byte goes through a {!Secdb_storage.Vfs}
    backend, each record carries a CRC-32 trailer
    ([len:4][record][crc:4]), and a {!sync_policy} decides when appends
    are fsynced.  After a crash, {!recover} authenticates the longest
    valid prefix and says {e why} the tail ends ({!tail}) instead of
    rejecting the whole log; {!replay} remains the strict all-or-nothing
    verifier for adversarial settings.

    Replication rides the same sealed records: a primary streams them raw
    with {!read_sealed} and a replica re-verifies and stores them verbatim
    with {!append_sealed}, so a replica's log is a byte-identical
    authenticated prefix of the primary's — recovery on either end is the
    same {!recover} code path. *)

type op =
  | Create_table of Secdb_db.Schema.t
  | Create_index of { table : string; col : string }
  | Create_range_index of { table : string; col : string; buckets : int }
  | Insert of { table : string; values : Secdb_db.Value.t list }
  | Update of { table : string; row : int; col : string; value : Secdb_db.Value.t }
  | Delete of { table : string; row : int }

val op_table : op -> string
(** The table an operation addresses — the shard-routing key, so a replica
    applies each record to the same shard the primary did. *)

val pp_op : Format.formatter -> op -> unit

(** {2 Writing} *)

type sync_policy =
  | Always
      (** fsync at the end of every append call: an acked append survives
          any crash.  A batch ({!append_batch}) is one call, so its records
          share one fsync and none of them is durable before all are. *)
  | Every_n of int
      (** fsync after the append call that brings the records not yet
          fsynced to [n] or more: bounded loss window *)
  | Never  (** fsync only at {!sync}/{!close}: fastest, crash loses the tail *)

type writer

val create :
  ?vfs:Secdb_storage.Vfs.t ->
  ?sync:sync_policy ->
  ?mode:[ `Trunc | `Resume ] ->
  path:string ->
  aead:Secdb_aead.Aead.t ->
  nonce:Secdb_aead.Nonce.t ->
  unit ->
  writer
(** Open a log for appending.  [sync] defaults to [Always].

    [mode] defaults to [`Trunc]: truncate and start at sequence 0.
    [`Resume] re-opens an existing log (creating it when missing), parses
    the longest authenticated prefix exactly as {!recover} would, truncates
    any torn or corrupt tail, fsyncs, and continues appending at the
    recovered sequence number and byte offset — a restarted primary keeps
    its history instead of silently wiping it.

    [nonce] must never repeat a value used with the same [aead] key by an
    earlier incarnation of the log: resumed records keep the nonces they
    were sealed with, so a resuming caller needs a fresh stream (e.g. a
    random per-boot prefix plus a counter), not a counter restarted at 0. *)

val append_batch : writer -> op list -> int
(** Seal the operations at consecutive sequence numbers, write them with
    one write, then apply the writer's {!sync_policy} once; returns the
    first one's sequence number (the batch takes [first .. first + n - 1]).
    The records are byte-for-byte what as many {!append}s would write.  On
    an I/O error ({!Secdb_storage.Vfs.Io_error}) in the write the log is
    truncated back to the batch's start before the exception propagates,
    so a failed append never leaves a torn record behind a live writer; an
    error in the fsync leaves the batch written but not {!durable}.  The
    empty batch writes and syncs nothing. *)

val append : writer -> op -> int
(** [append w op] is [append_batch w [op]]: seal and append one operation,
    returning its sequence number. *)

val append_sealed : writer -> string -> (op, string) result
(** Append one already-sealed record, verbatim.  The record is verified
    exactly as {!recover} would — CRC, frame shape, sequence number bound
    as associated data (it must equal this writer's next sequence), and
    the AEAD tag — before any byte is written, so a replica's log only
    ever contains records that authenticate at their position.  Returns
    the decoded operation so the caller can apply it.  Mixing
    [append_sealed] with {!append} on one writer is not meaningful: a
    replica copies, a primary seals. *)

val verify_sealed :
  aead:Secdb_aead.Aead.t -> seq:int -> string -> (op, string) result
(** The verification half of {!append_sealed} without the write — for
    consumers that apply shipped records without keeping a local copy. *)

val sync : writer -> unit
(** Fsync now; after it returns, every acked append survives a crash. *)

val count : writer -> int
(** Appended records, including any not yet fsynced. *)

val durable : writer -> int
(** Records covered by the last fsync — the only ones {!read_sealed}
    ships, so a crash of this writer can never make a consumer hold
    records the writer itself lost. *)

val read_sealed : writer -> from:int -> max:int -> (int * string) list
(** Raw sealed records [from, min (durable w) (from + max)), each with its
    sequence number, read back from the log file.  Feeds
    {!append_sealed} on the other end of a replication stream. *)

val close : writer -> unit
(** Sync, then release the file. *)

(** {2 Reading} *)

type tail =
  | Complete  (** the log ends exactly at a record boundary *)
  | Torn_length of { off : int; have : int }
      (** fewer than 4 bytes of length field at the tail *)
  | Torn_record of { seq : int; off : int; expect : int; have : int }
      (** record [seq] is cut short (classic torn write) *)
  | Bad_length of { seq : int; off : int; len : int }
      (** implausible length field (zeroed or garbage sector) *)
  | Bad_crc of { seq : int; off : int }  (** storage corruption inside the record *)
  | Bad_record of { seq : int; off : int; reason : string }
      (** frame/decode failure, or out-of-order sequence (splice) *)
  | Bad_auth of { seq : int; off : int }
      (** CRC fine but AEAD rejects: adversarial modification *)

val tail_to_string : tail -> string

val replay :
  ?vfs:Secdb_storage.Vfs.t ->
  path:string ->
  aead:Secdb_aead.Aead.t ->
  unit ->
  ((int * op) list, string) result
(** Read, verify and decode the whole log, strictly: any torn, modified,
    reordered or foreign record fails the whole replay.  A truncated
    {e tail} at a record boundary parses as a shorter valid log — compare
    the length against the out-of-band count. *)

val recover :
  ?vfs:Secdb_storage.Vfs.t ->
  path:string ->
  aead:Secdb_aead.Aead.t ->
  unit ->
  ((int * op) list * tail, string) result
(** Crash recovery: the longest prefix of records that parse, pass their
    CRC and authenticate, together with the diagnosis of why the log ends
    there.  [Error] only when the file itself cannot be read. *)

val apply : Encdb.t -> op -> (unit, string) result
(** Apply one operation to a live session. *)

type replay_error = { applied : int; reason : string }
(** A failed replay: how many operations were applied before the failure
    (0 when verification itself failed), and why. *)

val replay_into :
  Encdb.t ->
  ?vfs:Secdb_storage.Vfs.t ->
  path:string ->
  aead:Secdb_aead.Aead.t ->
  unit ->
  (int, replay_error) result
(** Verify and apply a whole log; returns the number of operations
    applied.  On failure the count of already-applied operations is
    reported, not discarded. *)
