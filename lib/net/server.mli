(** Concurrent secdb server: dispatches authenticated, pipelined
    {!Wire.req} operations against one {!Secdb.Encdb.t}.

    One lightweight thread serves each connection (a reader that
    verifies, dispatches and produces responses, and a writer draining a
    bounded response queue — the queue bound is the per-connection
    in-flight cap, so a client that pipelines faster than the server can
    answer is throttled through TCP backpressure rather than unbounded
    buffering).  The writer encodes each response once, into a buffer it
    reuses for the life of the connection.

    The data plane is sharded: every table lives in exactly one shard
    ({!Secdb_db.Shard.key_index} over its name), each shard owns a full
    {!Secdb.Encdb.t} and one executor domain, and a request routes to the
    shard of the table it names.  The executor is the database's sole
    owner — a request reaches it only as a job on that shard's queue — so
    requests on different shards run in true parallel while one shard's
    requests stay serialised without a lock, which is what keeps
    pipelined results byte-identical to the in-process API.  Every
    SELECT, JOINs included, is served lock-free from its shard's
    published read snapshot ({!Secdb_sql.Snapshot}), so it never blocks
    behind a writer; only a table the snapshot left out after an
    integrity failure falls through to the executor.  SQL is the only
    data-plane request.

    Writes are group-committed.  A connection's reader queues each
    mutation on its shard without waiting for it and reads on; the
    writer sends the replies in arrival order.  The executor runs every
    job queued at once, logs the mutations among them with one oplog
    append (one fsync), republishes the snapshot and only then answers
    them, so an ack still follows the write's fsync and a connection
    always reads its own writes.  A request first waits for the
    connection's queued mutations unless it is itself a mutation on the
    same shard, so a connection's requests take effect in the order it
    sent them.

    The server is configured with the {e derived} session-auth credential
    ({!Wire.auth_key_of_master}), never the master key itself.

    Every request is observed through {!Secdb_obs}: [net.rpc{op=...}]
    counters, [net.rpc_latency{op=...}] histograms, [net.bytes_in] /
    [net.bytes_out], a [net.connections] gauge and [net.auth_failures] —
    all visible to clients through the [Stats] RPC. *)

type config = {
  auth_key : string;  (** 32-byte credential from {!Wire.auth_key_of_master} *)
  max_frame : int;  (** largest accepted frame ({!Wire.default_max_frame}) *)
  max_inflight : int;  (** per-connection response-queue bound (default 64) *)
  read_timeout : float;  (** seconds a connection may sit idle (default 30) *)
  write_timeout : float;  (** seconds a single frame write may take (default 30) *)
  shards : int;  (** data-plane shard count (default {!Secdb_util.Pool.recommended}) *)
}

val config :
  ?max_frame:int ->
  ?max_inflight:int ->
  ?read_timeout:float ->
  ?write_timeout:float ->
  ?shards:int ->
  auth_key:string ->
  unit ->
  config

type t

(** What this node is in a replication topology (default [Standalone]).

    A [Primary] appends every observed mutation to the given oplog writer
    on the executor that performed it, one {!Secdb.Oplog.append_batch}
    per batch — before any reply of the batch is sent, so an acked write
    is a logged write, and per-shard apply order equals log order.  It
    answers [Repl_pull] with sealed records (only fsynced ones ever
    ship).  It fails closed: once an append fails, the log stops
    growing, and every mutation of the batch that hit the failure and
    every later one are answered with a structured [oplog failed] error
    instead of an ack (later ones are not applied).  The failed batch
    stays in the shard's database but is not published to the snapshot:
    snapshot reads are still served and see the last logged state, while
    reads that would run on the database (EXPLAIN, a SELECT the snapshot
    declines) are refused with the same error.  Pulls and [Repl_root]
    report the failure too.

    A [Replica] rejects every mutating request with a structured
    [read-only] error — its only write path is {!apply_op}, fed by the
    pull loop ({!Repl.run_replica}) — and serves reads from the same
    snapshot machinery as any node.  [initial_applied] seats the op count
    after a boot-time replay of the local log copy.

    Every role answers [Repl_root] with the Merkle root over its
    per-shard digests and the op count it reflects, read by a barrier
    job that parks every shard's executor, so the root and the count
    describe one consistent state. *)
type role =
  | Standalone
  | Primary of Secdb.Oplog.writer
  | Replica of { initial_applied : int }

val create :
  ?seed:int64 ->
  ?role:role ->
  config:config ->
  db:(int -> Secdb.Encdb.t) ->
  Wire.addr ->
  (t, string) result
(** Bind and listen (Unix socket or TCP), then build one database per
    shard: [db i] must return shard [i]'s {!Secdb.Encdb.t} — give shards
    disjoint [first_table_id] / [first_index_id] ranges so derived keys
    never collide.  A stale Unix-socket path is replaced.  [seed] fixes
    the challenge-nonce stream (tests); by default it is drawn from the
    clock and pid.

    For byte-identical replication the primary, every replica and any
    offline restore must build their shard databases with the same seeds
    and the same shard count — nonce streams and table ids are derived
    from both. *)

val apply_op : t -> Secdb.Oplog.op -> (unit, string) result
(** Apply one (already verified) replicated op on the executor of the
    shard it routes to, republishing that shard's read snapshot — the
    replica's write path. *)

val addr : t -> Wire.addr

val run : t -> unit
(** Serve in the calling thread until {!request_stop} (e.g. from a SIGTERM
    handler), then drain: stop accepting, let every connection finish its
    current request, wait until no connection is left open, close and
    unlink the socket. *)

val start : t -> unit
(** {!run} in a background thread (for tests and in-process benchmarks). *)

val request_stop : t -> unit
(** Flip the shutdown flag; safe to call from a signal handler. *)

val stop : t -> unit
(** {!request_stop}, then wait until the drain completes.  Idempotent. *)

val dispatch : Secdb.Encdb.t -> Wire.req -> (Wire.resp, Wire.err_code * string) result
(** The request executor itself, exposed so tests and benchmarks can
    compare a networked result against the same call made in process. *)
