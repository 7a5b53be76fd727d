module Metrics = Secdb_obs.Metrics
module Trace = Secdb_obs.Trace
module Rng = Secdb_util.Rng
module Xbytes = Secdb_util.Xbytes
module Pool = Secdb_util.Pool
module Shard = Secdb_db.Shard
module Ast = Secdb_sql.Ast
module Parser = Secdb_sql.Parser
module Engine = Secdb_sql.Engine
module Snapshot = Secdb_sql.Snapshot

type config = {
  auth_key : string;
  max_frame : int;
  max_inflight : int;
  read_timeout : float;
  shards : int;
}

let config ?(max_frame = Wire.default_max_frame) ?(max_inflight = 64) ?(read_timeout = 30.)
    ?shards ~auth_key () =
  let shards = match shards with Some n -> n | None -> Pool.recommended () in
  if String.length auth_key < 16 then invalid_arg "Server.config: auth key shorter than 16 bytes";
  if max_frame < 64 then invalid_arg "Server.config: max_frame too small for a handshake";
  if max_inflight < 1 then invalid_arg "Server.config: max_inflight must be positive";
  if shards < 1 then invalid_arg "Server.config: shards must be positive";
  { auth_key; max_frame; max_inflight; read_timeout; shards }

(* Registered per server (not at module load) so a process that never
   serves — `secdb stats`, say — keeps its metric registry unchanged. *)
type metrics = {
  m_bytes_in : Metrics.counter;
  m_bytes_out : Metrics.counter;
  m_auth_failures : Metrics.counter;
  m_conn_total : Metrics.counter;
  g_conns : Metrics.gauge;
  m_rpc : (string * Metrics.counter) list;
  m_rpc_errors : Metrics.counter;
  h_rpc : (string * Metrics.histogram) list;
  m_snap_hits : Metrics.counter;
  m_snap_misses : Metrics.counter;
}

let op_names =
  [
    "ping";
    "stats";
    "sql";
    "repl_pull";
    "repl_root";
  ]

let make_metrics ~shards =
  Metrics.set (Metrics.gauge "shard.count") shards;
  {
    m_bytes_in = Metrics.counter "net.bytes_in";
    m_bytes_out = Metrics.counter "net.bytes_out";
    m_auth_failures = Metrics.counter "net.auth_failures";
    m_conn_total = Metrics.counter "net.connections_total";
    g_conns = Metrics.gauge "net.connections";
    m_rpc = List.map (fun op -> (op, Metrics.counter ~labels:[ ("op", op) ] "net.rpc")) op_names;
    m_rpc_errors = Metrics.counter "net.rpc_errors";
    h_rpc =
      List.map
        (fun op -> (op, Metrics.histogram ~labels:[ ("op", op) ] "net.rpc_latency"))
        op_names;
    m_snap_hits = Metrics.counter "shard.snapshot_hits";
    m_snap_misses = Metrics.counter "shard.snapshot_misses";
  }

(* --- bounded response queue (the per-connection in-flight cap) ------------- *)

module Bqueue = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    mu : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    {
      q = Queue.create ();
      cap;
      mu = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      closed = false;
    }

  (* Blocks while the queue is full: with the writer thread draining at
     the peer's read speed, this is exactly TCP backpressure on the
     pipelining client. *)
  let push t x =
    Mutex.lock t.mu;
    while Queue.length t.q >= t.cap && not t.closed do
      Condition.wait t.not_full t.mu
    done;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push x t.q;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.mu;
    accepted

  let pop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.not_empty t.mu
    done;
    let item = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Condition.signal t.not_full;
    Mutex.unlock t.mu;
    item

  (* Everything queued, oldest first; [] only once closed and empty. *)
  let pop_all t =
    Mutex.lock t.mu;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.not_empty t.mu
    done;
    let items = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mu;
    items

  let close t =
    Mutex.lock t.mu;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mu
end

(* --- dispatch ---------------------------------------------------------------- *)

(* The structured error for every exception a statement can raise. *)
let guarded f =
  try f () with
  | Not_found -> Error (Wire.App, "no such table, column or index")
  | Invalid_argument e -> Error (Wire.App, e)
  | Failure e -> Error (Wire.App, e)
  | Secdb.Keyring.Session_closed -> Error (Wire.App, "session closed")
  | e -> Error (Wire.Server_error, Printexc.to_string e)

let outcome = function Ok o -> Ok (Wire.Outcome o) | Error e -> Error (Wire.App, e)

let dispatch db (req : Wire.req) : (Wire.resp, Wire.err_code * string) result =
  guarded @@ fun () ->
  match req with
  | Wire.Ping payload -> Ok (Wire.Pong payload)
  | Wire.Stats fmt ->
      let snap = Metrics.snapshot () in
      Ok
        (Wire.Stats_dump
           (match fmt with `Text -> Metrics.to_text snap | `Json -> Metrics.to_json snap))
  | Wire.Sql stmt -> outcome (Engine.exec db stmt)
  (* replication requests need the serving layer's role and shard map;
     the single-db reference dispatch has neither *)
  | Wire.Repl_pull _ -> Error (Wire.App, "replication pull needs a serving primary")
  | Wire.Repl_root -> Error (Wire.App, "attestation needs a serving node")

(* [dispatch] of an already parsed statement: the executor never parses. *)
let exec_stmt db stmt = guarded (fun () -> outcome (Engine.exec_stmt db stmt))

(* --- deferred replies ----------------------------------------------------------

   A mutation does not hold up its connection: the reader queues it on its
   shard and reads on, and a reply slot goes to the connection's writer in
   its place.  The shard's executor fills the slot once the batch holding
   the mutation is durable; the writer sends the slots in arrival order.
   All slots of one connection share its one mutex and condition. *)

type conn = {
  cmu : Mutex.t;
  filled : Condition.t;
  mutable last : slot option;  (* the newest queued mutation; reader only *)
}

and slot = {
  owner : conn;
  shard : int;
  opened : float;  (* {!Trace.open_span} when the request arrived *)
  mutable reply : (Wire.resp, Wire.err_code * string) result option;  (* under owner.cmu *)
}

let await_slot s =
  Mutex.lock s.owner.cmu;
  while s.reply = None do
    Condition.wait s.owner.filled s.owner.cmu
  done;
  Mutex.unlock s.owner.cmu;
  Option.get s.reply

(* --- shards -------------------------------------------------------------------

   Every table lives in exactly one shard ({!Shard.key_index} over its
   name), and each shard owns a full {!Secdb.Encdb.t} — tables, indexes,
   pager — plus one executor domain, the database's sole owner: a
   request reaches a shard's state only as a job on that shard's queue.
   So requests on different shards run in true parallel while a shard's
   own requests stay serialised, with no lock (which is what keeps
   pipelined results byte-identical to the in-process API).

   After every batch of mutations the executor folds the resulting
   {!Secdb.Encdb.change}s into an immutable {!Snapshot.t} and publishes
   it with one atomic store — the read path: every SELECT, JOINs
   included, is answered by reader threads straight from the last
   published snapshot, never blocking behind a writer.  Publication
   happens before the replies are filled, so a connection always reads
   its own writes. *)

type job =
  | Mutation of Ast.stmt * slot  (* run in a batch: see [executor] *)
  | Task of (unit -> unit)

type shard_state = {
  sdb : Secdb.Encdb.t;
  pending : Secdb.Encdb.change list ref;  (* filled by the on_change hook *)
  snap : Snapshot.t Atomic.t;
  jobs : job Bqueue.t;
}

let make_shard db_of i =
  let sdb = db_of i in
  let pending = ref [] in
  Secdb.Encdb.set_on_change sdb (Some (fun ch -> pending := ch :: !pending));
  {
    sdb;
    pending;
    snap = Atomic.make (Snapshot.of_db sdb);
    jobs = Bqueue.create 64;
  }

(* Run [f] on the shard's executor and wait for its result. *)
let run_job sh f =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let result = ref None in
  let job () =
    let r = f () in
    Mutex.lock mu;
    result := Some r;
    Condition.signal cond;
    Mutex.unlock mu
  in
  if Bqueue.push sh.jobs (Task job) then begin
    Mutex.lock mu;
    while !result = None do
      Condition.wait cond mu
    done;
    Mutex.unlock mu;
    Ok (Option.get !result)
  end
  else Error `Draining

(* The changes made since the last call, oldest first.  Executor only. *)
let take_changes sh =
  let changes = List.rev !(sh.pending) in
  sh.pending := [];
  changes

(* Fold [changes] into the shard's snapshot.  Executor only, before the
   replies are filled — so an acked mutation is already visible. *)
let publish sh = function
  | [] -> ()
  | changes -> Atomic.set sh.snap (List.fold_left Snapshot.apply (Atomic.get sh.snap) changes)

(* --- server ------------------------------------------------------------------- *)

(* What this node is in a replication topology.  A [Primary] appends
   every observed mutation to its oplog writer (inside the executor,
   before the reply is filled, so an acked write is a logged write).  A
   [Replica] rejects mutations from clients — its only write path is
   {!apply_op}, fed by the pull loop — and serves reads from the same
   snapshot machinery as any other node. *)
type role =
  | Standalone
  | Primary of Secdb.Oplog.writer
  | Replica of { initial_applied : int }

type t = {
  cfg : config;
  role : role;
  repl_mu : Mutex.t;  (* serialises oplog appends and reads across shards *)
  applied : int Atomic.t;  (* ops reflected in the served state *)
  repl_error : string option Atomic.t;  (* first oplog failure, set under repl_mu *)
  shards : shard_state array;
  barrier_mu : Mutex.t;  (* one barrier's pushes at a time: see [attest] *)
  mutable doms : unit Domain.t array;  (* set once by [create] *)
  listen_fd : Unix.file_descr;
  address : Wire.addr;
  unix_path : string option;
  stop_flag : bool Atomic.t;
  lifecycle_mu : Mutex.t;
  drained_cond : Condition.t;
  mutable drained : bool;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  conn_mu : Mutex.t;
  conns_done : Condition.t;  (* broadcast whenever [active] drops to 0 *)
  mutable active : int;  (* connections accepted and not yet closed, under conn_mu *)
  rng : Rng.t;
  rng_mu : Mutex.t;
  m : metrics;
}

let default_seed () =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.of_int (Unix.getpid () * 0x9e3779b9))

(* The primary's oplog hook, run by the executor that performed the
   mutations — per-shard apply order and log order therefore agree, which
   is what makes a replica's replay byte-identical.  One call logs a
   whole batch with one {!Secdb.Oplog.append_batch}.  It fails closed:
   after a first append failure the log stops growing, and the batch that
   hit it and every later mutation are answered with the error instead of
   an ack; pulls and attestations report it too. *)
let log_changes t changes =
  match (t.role, changes) with
  | (Standalone | Replica _), _ | Primary _, [] -> Ok ()
  | Primary w, changes ->
      Mutex.lock t.repl_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.repl_mu)
        (fun () ->
          match Atomic.get t.repl_error with
          | Some e -> Error e
          | None -> (
              try
                ignore (Secdb.Oplog.append_batch w (List.map Repl.op_of_change changes));
                Atomic.set t.applied (Secdb.Oplog.count w);
                Ok ()
              with e ->
                let e = Printexc.to_string e in
                Atomic.set t.repl_error (Some e);
                Error e))

let oplog_failed e = Error (Wire.Server_error, "oplog failed: " ^ e)
let draining = Error (Wire.Server_error, "server draining")

(* Count a request's latency and error once its result is known. *)
let count_result t op ~opened r =
  Trace.close_span ~attrs:[ ("op", op) ] ?hist:(List.assoc_opt op t.m.h_rpc) "net.dispatch"
    ~start:opened;
  match r with Error _ -> Metrics.incr t.m.m_rpc_errors | Ok _ -> ()

(* Fill a mutation's reply slot, counting it here, where its result is
   known. *)
let fill t s r =
  count_result t "sql" ~opened:s.opened r;
  Mutex.lock s.owner.cmu;
  s.reply <- Some r;
  Condition.broadcast s.owner.filled;
  Mutex.unlock s.owner.cmu

(* Log the batch's changes, publish them, then fill every reply of the
   batch ([batch] is newest first).  A batch whose log append fails is
   not published, so snapshot reads keep the last durable state, and
   every mutation in it gets the error.  The shard's database does hold
   the failed batch: reads that would run on it are refused from then on
   (see [exec_sql]). *)
let commit t sh batch =
  let changes = take_changes sh in
  let replies =
    match log_changes t changes with
    | Ok () ->
        publish sh changes;
        List.rev batch
    | Error e -> List.rev_map (fun (s, _) -> (s, oplog_failed e)) batch
  in
  List.iter (fun (s, r) -> fill t s r) replies

(* Group commit.  The executor takes every job queued on its shard at once
   and runs them in queue order.  Mutations run back to back and leave
   their replies open; [commit] then logs the whole batch — one fsync —
   publishes it and fills the replies.  Any other job commits the open
   batch first, so a barrier, a replicated op, an EXPLAIN or a SELECT the
   snapshot declined never sees a state that is not yet durable.  Once
   the log has failed a mutation is refused before it runs, so the
   database moves no further ahead of the log. *)
let executor t sh =
  let run batch = function
    | Mutation (stmt, s) ->
        let r =
          match Atomic.get t.repl_error with
          | Some e -> oplog_failed e
          | None -> exec_stmt sh.sdb stmt
        in
        (s, r) :: batch
    | Task f ->
        commit t sh batch;
        f ();
        []
  in
  let rec loop () =
    match Bqueue.pop_all sh.jobs with
    | [] -> ()
    | jobs ->
        commit t sh (List.fold_left run [] jobs);
        loop ()
  in
  loop ()

let create ?seed ?(role = Standalone) ~config:(cfg : config) ~db address =
  let seed = match seed with Some s -> s | None -> default_seed () in
  try
    let fd =
      match address with
      | Wire.Unix_sock path ->
          if Sys.file_exists path then Unix.unlink path;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          fd
      | Wire.Tcp _ ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Wire.sockaddr_of_addr address);
          fd
    in
    Unix.listen fd 64;
    let address =
      (* report the kernel-chosen port when asked for port 0 *)
      match (address, Unix.getsockname fd) with
      | Wire.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
      | _ -> address
    in
    let t =
      {
        cfg;
        role;
        repl_mu = Mutex.create ();
        applied =
          Atomic.make
            (match role with
            | Standalone -> 0
            | Primary w -> Secdb.Oplog.count w
            | Replica { initial_applied } -> initial_applied);
        repl_error = Atomic.make None;
        shards = Array.init cfg.shards (make_shard db);
        barrier_mu = Mutex.create ();
        doms = [||];
        listen_fd = fd;
        address;
        unix_path = (match address with Wire.Unix_sock p -> Some p | Wire.Tcp _ -> None);
        stop_flag = Atomic.make false;
        lifecycle_mu = Mutex.create ();
        drained_cond = Condition.create ();
        drained = false;
        running = false;
        accept_thread = None;
        conn_mu = Mutex.create ();
        conns_done = Condition.create ();
        active = 0;
        rng = Rng.create ~seed ();
        rng_mu = Mutex.create ();
        m = make_metrics ~shards:cfg.shards;
      }
    in
    t.doms <- Array.map (fun sh -> Domain.spawn (fun () -> executor t sh)) t.shards;
    Ok t
  with Unix.Unix_error (e, fn, arg) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s (%s %s)" (Wire.addr_to_string address)
         (Unix.error_message e) fn arg)

let addr t = t.address
let stopping t () = Atomic.get t.stop_flag

let fresh_nonce t =
  Mutex.lock t.rng_mu;
  let n = Rng.bytes t.rng 16 in
  Mutex.unlock t.rng_mu;
  n

let is_replica t = match t.role with Replica _ -> true | Standalone | Primary _ -> false
let is_read (stmt : Ast.stmt) = match stmt with Ast.Select _ | Ast.Explain _ -> true | _ -> false
let shard_index t table = Shard.key_index ~shards:(Array.length t.shards) table
let shard_of t table = t.shards.(shard_index t table)

(* What [Repl_root] reports; only ever called with every executor parked. *)
let read_root t =
  match Atomic.get t.repl_error with
  | Some e -> oplog_failed e
  | None ->
      let digests = Array.to_list (Array.map (fun sh -> Secdb.Encdb.digest sh.sdb) t.shards) in
      Ok (Wire.Root { applied = Atomic.get t.applied; root = Repl.combined_root digests })

(* Attestation as a barrier job.  One job goes onto every shard's queue;
   each executor parks when it reaches it, and the last to arrive — with
   every executor parked, so no job is mid-mutation and no batch is left
   open — reads the applied count and every digest, then releases them
   all.  The root and the count therefore describe one state.

   Push order: the pushes of one barrier happen under [barrier_mu].
   Without it two concurrent barriers could enter two queues in opposite
   orders, each parking one executor that waits for the other forever.
   Under it every queue holds the barriers in one order, so a barrier
   whose pushes are done always completes: whatever is ahead of it in a
   queue is a plain job or an earlier barrier, itself fully pushed.  A
   push refused because the server is draining releases the executors
   already parked. *)
let attest t =
  let n = Array.length t.shards in
  let mu = Mutex.create () and cond = Condition.create () in
  let arrived = ref 0 and result = ref None in
  (* under [mu] *)
  let finish r =
    result := Some r;
    Condition.broadcast cond
  in
  let await () =
    while !result = None do
      Condition.wait cond mu
    done
  in
  let park () =
    Mutex.lock mu;
    incr arrived;
    if !arrived = n then
      finish (try read_root t with e -> Error (Wire.Server_error, Printexc.to_string e))
    else await ();
    Mutex.unlock mu
  in
  Mutex.lock t.barrier_mu;
  let pushed = Array.for_all (fun sh -> Bqueue.push sh.jobs (Task park)) t.shards in
  Mutex.unlock t.barrier_mu;
  Mutex.lock mu;
  if pushed then await () else finish draining;
  let r = Option.get !result in
  Mutex.unlock mu;
  r

(* --- routing ------------------------------------------------------------------ *)

(* What a connection's reader hands its writer.  A reply travels as the
   [resp] value itself, or as the slot a queued mutation will fill: the
   writer encodes each once, into its own reused buffer.  A [Fatal] frame
   is the last thing a connection sends. *)
type outgoing =
  | Reply of int * (Wire.resp, Wire.err_code * string) result
  | Deferred of int * slot
  | Fatal of Wire.frame

(* Wait until every mutation the connection has queued is done.  On one
   shard the newest is enough: a shard's queue is FIFO and a batch fills
   its replies only after every earlier batch. *)
let settle conn =
  match conn.last with
  | None -> ()
  | Some s ->
      ignore (await_slot s);
      conn.last <- None

(* A statement that is not a mutation.  In order: a replica rejects
   mutations, a JOIN spanning shards is refused, a SELECT is answered from
   the shard's published snapshot (lock-free), and what the snapshot
   declines — EXPLAIN, and SELECTs on a table {!Snapshot.of_db} left out
   after an integrity failure — runs as a job on the shard's executor.
   Such a job is refused once the log has failed: the database may then
   hold a batch that was never logged. *)
let exec_sql t (stmt : Ast.stmt) =
  match stmt with
  | stmt when is_replica t && not (is_read stmt) ->
      Error (Wire.App, "read-only replica: mutations go to the primary")
  | _ when
      (* every table a statement touches must live on one shard: a JOIN
         spanning shards has no single executor that owns both tables, so
         refuse it structurally instead of answering from half the data *)
      List.length (List.sort_uniq compare (List.map (shard_index t) (Ast.stmt_tables stmt))) > 1 ->
      Error
        ( Wire.App,
          Printf.sprintf "cross-shard JOIN: tables {%s} live on different shards"
            (String.concat ", " (Ast.stmt_tables stmt)) )
  | _ -> (
      let sh = shard_of t (Ast.stmt_table stmt) in
      match Engine.exec_snapshot (Atomic.get sh.snap) stmt with
      | Some r ->
          Metrics.incr t.m.m_snap_hits;
          outcome r
      | None -> (
          (match stmt with Ast.Select _ -> Metrics.incr t.m.m_snap_misses | _ -> ());
          match
            run_job sh (fun () ->
                match Atomic.get t.repl_error with
                | Some e -> oplog_failed e
                | None -> exec_stmt sh.sdb stmt)
          with
          | Ok r -> r
          | Error `Draining -> draining))

(* Route one request.  SQL parses once: the statement names its table, the
   table names one shard.  A mutation (on a node that takes them) goes
   onto its shard's queue without waiting and answers later.  Any other
   request first waits for the connection's queued mutations, and so does
   a mutation bound for another shard than the connection's last one: a
   connection's requests take effect in the order it sent them, and a
   read sees the connection's own writes.  Ping and Stats touch no table
   and are answered inline.  An inline reply is counted here, a queued
   one by [fill]. *)
let exec_routed t conn ~id (req : Wire.req) =
  let op = Wire.op_name req in
  (match List.assoc_opt op t.m.m_rpc with Some c -> Metrics.incr c | None -> ());
  let opened = Trace.open_span () in
  let reply result =
    count_result t op ~opened result;
    Reply (id, result)
  in
  let now f =
    settle conn;
    reply (f ())
  in
  match req with
  | Wire.Sql src -> (
      match Parser.parse src with
      | Error e -> now (fun () -> Error (Wire.App, e))
      | Ok stmt when is_read stmt || is_replica t -> now (fun () -> exec_sql t stmt)
      | Ok stmt ->
          let shard = shard_index t (Ast.stmt_table stmt) in
          (match conn.last with Some s when s.shard <> shard -> settle conn | _ -> ());
          let s = { owner = conn; shard; opened; reply = None } in
          if Bqueue.push t.shards.(shard).jobs (Mutation (stmt, s)) then begin
            conn.last <- Some s;
            Deferred (id, s)
          end
          else reply draining)
  | Wire.Ping _ | Wire.Stats _ -> now (fun () -> dispatch t.shards.(0).sdb req)
  | Wire.Repl_pull { ack; max } ->
      now (fun () ->
          match t.role with
          | Primary w ->
              Mutex.lock t.repl_mu;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock t.repl_mu)
                (fun () ->
                  match Atomic.get t.repl_error with
                  | Some e -> oplog_failed e
                  | None ->
                      if ack < 0 || max < 0 then Error (Wire.Bad_payload, "negative pull bounds")
                      else
                        let max = min max 1024 (* bound one response's size *) in
                        Ok
                          (Wire.Repl_records
                             {
                               durable = Secdb.Oplog.durable w;
                               records = Secdb.Oplog.read_sealed w ~from:ack ~max;
                             }))
          | Standalone | Replica _ -> Error (Wire.App, "not a primary"))
  | Wire.Repl_root -> now (fun () -> attest t)

(* The replica's single write path: apply one pulled (already verified)
   op on the shard executor it routes to, exactly as the primary's own
   mutations ride theirs.  The count moves inside the job, so a barrier
   never sees the op without it. *)
let apply_op t op =
  let sh = shard_of t (Secdb.Oplog.op_table op) in
  match
    run_job sh (fun () ->
        let r = Secdb.Oplog.apply sh.sdb op in
        publish sh (take_changes sh);
        if Result.is_ok r then Atomic.incr t.applied;
        r)
  with
  | Ok r -> r
  | Error `Draining -> Error "server draining"

let observe_in t frame = Metrics.add t.m.m_bytes_in (Wire.frame_size frame)

(* seconds a single frame write may take before the peer counts as gone *)
let write_timeout = 30.

let send ?stop t fd frame =
  Metrics.add t.m.m_bytes_out (Wire.frame_size frame);
  Wire.write_frame ?stop ~timeout:write_timeout fd frame

(* Challenge–response over the fresh connection.  Returns the per-session
   request-MAC key; the master key plays no part here — both sides work
   from the derived [auth_key]. *)
let handshake t fd =
  let reject code message =
    ignore (send t fd (Wire.Conn_error { code; message }));
    Error ()
  in
  match
    Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame ~timeout:t.cfg.read_timeout fd
  with
  | Error (`Too_large n) -> reject Wire.Too_large (Printf.sprintf "hello frame of %d bytes" n)
  | Error (`Bad_frame e) -> reject Wire.Frame e
  | Error (`Eof | `Timeout | `Stopped) -> Error ()
  | Ok (Wire.Hello { version; nonce = client_nonce }) -> (
      if version <> Wire.protocol_version then
        reject Wire.Frame (Printf.sprintf "unsupported protocol version %d" version)
      else
        let server_nonce = fresh_nonce t in
        match send t fd (Wire.Challenge { version = Wire.protocol_version; nonce = server_nonce }) with
        | Error _ -> Error ()
        | Ok () -> (
            match
              Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame
                ~timeout:t.cfg.read_timeout fd
            with
            | Ok (Wire.Auth mac) ->
                let expected =
                  Wire.handshake_mac ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce
                in
                if Xbytes.constant_time_equal mac expected then
                  match
                    send t fd
                      (Wire.Auth_ok
                         (Wire.accept_mac ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce))
                  with
                  | Ok () ->
                      Ok (Wire.session_key ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce)
                  | Error _ -> Error ()
                else begin
                  Metrics.incr t.m.m_auth_failures;
                  reject Wire.Auth "handshake MAC mismatch"
                end
            | Ok _ -> reject Wire.Frame "expected an auth frame"
            | Error (`Too_large n) ->
                reject Wire.Too_large (Printf.sprintf "auth frame of %d bytes" n)
            | Error (`Bad_frame e) -> reject Wire.Frame e
            | Error (`Eof | `Timeout | `Stopped) -> Error ()))
  | Ok _ -> reject Wire.Frame "expected a hello frame"

let handle_request t conn session_mac (frame : Wire.frame) =
  match frame with
  | Wire.Request { id; body; mac } ->
      let expected = Wire.request_mac_keyed session_mac ~id ~body in
      if not (Xbytes.constant_time_equal mac expected) then begin
        Metrics.incr t.m.m_auth_failures;
        Reply (id, Error (Wire.Auth, "request MAC mismatch"))
      end
      else begin
        match Wire.decode_request body with
        | Error _ as e ->
            Metrics.incr t.m.m_rpc_errors;
            Reply (id, e)
        | Ok req -> exec_routed t conn ~id req
      end
  | _ -> Fatal (Wire.Conn_error { code = Wire.Frame; message = "expected a request frame" })

let set_conn_gauge t delta =
  Mutex.lock t.conn_mu;
  t.active <- t.active + delta;
  Metrics.set t.m.g_conns t.active;
  if t.active = 0 then Condition.broadcast t.conns_done;
  Mutex.unlock t.conn_mu

(* The accept loop has already counted this connection in [active]. *)
let serve_conn t fd =
  Metrics.incr t.m.m_conn_total;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      set_conn_gauge t (-1))
    (fun () ->
      match handshake t fd with
      | Error () -> ()
      | Ok session_key ->
          (* hoisted for the connection: every request verifies under the
             same keyed MAC *)
          let session_mac = Wire.session_mac ~session_key in
          let conn = { cmu = Mutex.create (); filled = Condition.create (); last = None } in
          let queue = Bqueue.create t.cfg.max_inflight in
          let dead = Atomic.make false in
          let writer =
            Thread.create
              (fun () ->
                let out = Wire.reply_writer () in
                let stop () = Atomic.get dead in
                let reply id result =
                  Metrics.add t.m.m_bytes_out (Wire.encode_reply out ~id result);
                  Wire.send_reply ~stop ~timeout:write_timeout out fd
                in
                let rec drain () =
                  match Bqueue.pop queue with
                  | None -> ()
                  | Some item ->
                      if not (Atomic.get dead) then begin
                        let written =
                          match item with
                          | Reply (id, result) -> reply id result
                          | Deferred (id, s) -> reply id (await_slot s)
                          | Fatal frame -> send ~stop t fd frame
                        in
                        if Result.is_error written then Atomic.set dead true
                      end;
                      drain ()
                in
                drain ())
              ()
          in
          let rec loop () =
            if Atomic.get dead then ()
            else
              match
                Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame
                  ~timeout:t.cfg.read_timeout fd
              with
              | Error (`Eof | `Timeout | `Stopped) -> ()
              | Error (`Too_large n) ->
                  ignore
                    (Bqueue.push queue
                       (Fatal
                          (Wire.Conn_error
                             { code = Wire.Too_large; message = Printf.sprintf "frame of %d bytes" n })))
              | Error (`Bad_frame e) ->
                  ignore (Bqueue.push queue (Fatal (Wire.Conn_error { code = Wire.Frame; message = e })))
              | Ok frame -> (
                  observe_in t frame;
                  match handle_request t conn session_mac frame with
                  | (Reply _ | Deferred _) as reply -> if Bqueue.push queue reply then loop ()
                  | Fatal _ as fatal -> ignore (Bqueue.push queue fatal))
          in
          loop ();
          Bqueue.close queue;
          Thread.join writer)

(* --- accept loop and lifecycle ------------------------------------------------ *)

let wait_readable ~stop fd =
  let rec go () =
    if stop () then false
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> false
  in
  go ()

(* The one shutdown tail, for a drained {!run} and a never-started {!stop}:
   stop listening (no new connections), wait until no connection is left
   (each notices the stop flag within one select slice and finishes its
   current request first), then — no submitter left — close the shard
   queues and join the executors. *)
let shut_down t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  Mutex.lock t.conn_mu;
  while t.active > 0 do
    Condition.wait t.conns_done t.conn_mu
  done;
  Mutex.unlock t.conn_mu;
  Array.iter (fun sh -> Bqueue.close sh.jobs) t.shards;
  Array.iter Domain.join t.doms;
  Mutex.lock t.lifecycle_mu;
  t.running <- false;
  t.drained <- true;
  Condition.broadcast t.drained_cond;
  Mutex.unlock t.lifecycle_mu

let run t =
  Mutex.lock t.lifecycle_mu;
  if t.running || t.drained then begin
    Mutex.unlock t.lifecycle_mu;
    invalid_arg "Server.run: already running or stopped"
  end;
  t.running <- true;
  Mutex.unlock t.lifecycle_mu;
  let rec accept_loop () =
    if wait_readable ~stop:(stopping t) t.listen_fd then begin
      (match Unix.accept t.listen_fd with
      | fd, _ -> (
          (* counted before its thread exists, so the drain below cannot
             miss a connection accepted just before the stop flag *)
          set_conn_gauge t 1;
          try ignore (Thread.create (fun () -> serve_conn t fd) ())
          with _ ->
            (* no thread to serve it (resource exhaustion): drop the peer *)
            (try Unix.close fd with Unix.Unix_error _ -> ());
            set_conn_gauge t (-1))
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set t.stop_flag true);
      accept_loop ()
    end
  in
  accept_loop ();
  shut_down t

let start t =
  let th = Thread.create (fun () -> run t) () in
  Mutex.lock t.lifecycle_mu;
  t.accept_thread <- Some th;
  Mutex.unlock t.lifecycle_mu

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  request_stop t;
  Mutex.lock t.lifecycle_mu;
  let started = t.running || t.accept_thread <> None || t.drained in
  Mutex.unlock t.lifecycle_mu;
  if not started then shut_down t
  else begin
    Mutex.lock t.lifecycle_mu;
    while not t.drained do
      Condition.wait t.drained_cond t.lifecycle_mu
    done;
    Mutex.unlock t.lifecycle_mu;
    match t.accept_thread with Some th -> Thread.join th | None -> ()
  end
