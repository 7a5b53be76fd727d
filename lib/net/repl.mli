(** Log shipping and point-in-time recovery over the authenticated net
    layer.

    The source scheme's central discipline — bind every artifact to its
    address and sequence so relocation, replay and splicing fail
    authentication — is exactly what a replication stream needs, so
    replication here is nothing more than shipping the {!Secdb.Oplog}'s
    sealed records (sequence number as AEAD associated data) over the
    HMAC-authenticated RPC channel and re-verifying them at the far end.

    The protocol is pull-based and stateless on the primary: a replica
    sends [Repl_pull { ack; max }] where [ack] is the size of its own
    durable prefix; the primary answers with sealed records starting at
    [ack] — only ones already covered by an fsync, so a primary crash can
    never leave a replica holding history the primary itself lost.  The
    replica verifies each record at its position, stores it verbatim
    (its log is byte-identical to the primary's prefix), applies it, and
    lets the next pull carry the new ack.  Crash either side, reconnect,
    and the ack re-synchronises the stream; no per-replica state, no
    session to lose.

    Attestation: [Repl_root] returns the Merkle root over the node's full
    database state ({!combined_root} of the per-shard {!Secdb.Encdb.digest}s)
    plus the op count it reflects.  With equal seeds and shard counts,
    primary and replica state is byte-identical at equal counts, so one
    constant-size comparison proves a replica serves exactly the
    primary's authenticated prefix. *)

val log_aead : master:string -> Secdb_aead.Aead.t
(** The oplog AEAD, derived from the master secret under
    ["secdb/oplog/key/v1"] — primary, replicas and offline restore all
    derive the same key, and nothing but the master travels out of band. *)

val log_nonce : rng:Secdb_util.Rng.t -> Secdb_aead.Nonce.t
(** A per-boot nonce stream for a (possibly resumed) log writer: a random
    8-byte boot prefix followed by an 8-byte counter, so no two boots —
    and no two appends within a boot — repeat a nonce under the log key. *)

val op_of_change : Secdb.Encdb.change -> Secdb.Oplog.op
(** Each observed mutation maps to exactly one oplog record; a replica
    applying the records in order re-derives the same change stream. *)

val route : shards:int -> Secdb.Oplog.op -> int
(** The shard an op belongs to ({!Secdb_db.Shard.key_index} over its
    table) — identical routing on primary, replica and offline restore. *)

val apply_routed : Secdb.Encdb.t array -> Secdb.Oplog.op -> (unit, string) result
(** Apply one op to the shard it routes to. *)

val combined_root : string list -> string
(** Merkle root over per-shard digests, in slot order. *)

val root_of_dbs : Secdb.Encdb.t array -> string
(** {!combined_root} of every shard's {!Secdb.Encdb.digest}. *)

val restore :
  ?vfs:Secdb_storage.Vfs.t ->
  path:string ->
  aead:Secdb_aead.Aead.t ->
  shards:int ->
  mkdb:(int -> Secdb.Encdb.t) ->
  ?to_op:int ->
  unit ->
  (Secdb.Encdb.t array * int, string) result
(** Point-in-time recovery: authenticate the longest valid prefix of the
    log at [path] ({!Secdb.Oplog.recover}), then rebuild fresh shard
    databases by applying the first [to_op] operations (default: the
    whole prefix).  Returns the shards and the count applied.  Fails if
    [to_op] exceeds the authenticated prefix — a torn or forged tail can
    bound, but never corrupt, what is restorable. *)

type progress = { got : int; primary_durable : int }

val pull_once :
  Client.t ->
  aead:Secdb_aead.Aead.t ->
  ?writer:Secdb.Oplog.writer ->
  ack:int ->
  apply:(Secdb.Oplog.op -> (unit, string) result) ->
  ?max:int ->
  unit ->
  (progress, [ `Conn of string | `Fatal of string ]) result
(** One pull round: request up to [max] records after [ack], verify each
    at its sequence position, store the verified records via [writer]
    (when keeping a local log copy) with one {!Secdb.Oplog.append_sealed}
    — one write, one fsync — and only then apply them, so the next ack
    only ever claims durable records.  [`Conn] means the transport died —
    reconnect and retry; [`Fatal] means verification, apply or the local
    log failed — the replica must stop rather than serve unauthenticated
    or undurable state.  No exception escapes for a local log I/O error
    ({!Secdb_storage.Vfs.Io_error}, {!Secdb_storage.Vfs.Crashed}). *)

val run_replica :
  connect:(unit -> (Client.t, string) result) ->
  aead:Secdb_aead.Aead.t ->
  ?writer:Secdb.Oplog.writer ->
  ack:(unit -> int) ->
  apply:(Secdb.Oplog.op -> (unit, string) result) ->
  ?max:int ->
  ?poll:float ->
  stop:(unit -> bool) ->
  unit ->
  (unit, string) result
(** The replica's catch-up loop: connect, pull until caught up, poll
    every [poll] seconds (default 0.05), reconnect with capped backoff
    whenever the primary goes away, and keep going until [stop] turns
    true ([Ok ()]) or a record fails verification or apply, or the local
    log fails ([Error] — divergence, never papered over). *)
