(* The traced in-process replay: the request path of [secdb serve],
   rebuilt from the layers' public functions with a bench-side span around
   each call.  [exec_routed] and [job] mirror [Server.exec_routed],
   [submit_job] and [log_changes] step for step, minus the thread
   hand-off — that, queue wait and GC stay in the stitch's residual. *)

module Wire = Secdb_net.Wire
module Repl = Secdb_net.Repl
module Engine = Secdb_sql.Engine
module Parser = Secdb_sql.Parser
module Snapshot = Secdb_sql.Snapshot
module Ast = Secdb_sql.Ast
module Encdb = Secdb.Encdb
module Oplog = Secdb.Oplog
module Shard = Secdb_db.Shard
module Metrics = Secdb_obs.Metrics

(* The [secdb serve] defaults the benchmark deploys with. *)
let master = "secdb demo master key"
let profile = Encdb.Fixed Encdb.Eax
let db_seed = 1L

(* One shard database exactly as [serve] builds it: per-shard seed offset
   and disjoint id ranges. *)
let shard_db shard =
  Encdb.create ~master ~profile
    ~seed:(Int64.add db_seed (Int64.of_int shard))
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let ns () = Int64.to_int (Monotonic_clock.now ())

(* --- spans ---------------------------------------------------------------- *)

type recorder = {
  mutable on : bool;
  mutable spans : Stats.span list;
  mutable next : int;
  mutable cur : int;  (** innermost open span, [-1] outside a request *)
  mutable req : int;
}

let recorder () = { on = false; spans = []; next = 0; cur = -1; req = 0 }

let span r name f =
  if not r.on then f ()
  else begin
    let id = r.next and parent = r.cur in
    r.next <- id + 1;
    r.cur <- id;
    let start_ns = ns () in
    let x = f () in
    let stop_ns = ns () in
    r.cur <- parent;
    r.spans <- { Stats.id; parent; name; req = r.req; start_ns; stop_ns } :: r.spans;
    x
  end

(* --- the node ------------------------------------------------------------- *)

type shard = { db : Encdb.t; pending : Encdb.change list ref; mutable snap : Snapshot.t }

type node = {
  shards : shard array;
  mutable log : Oplog.writer option;  (** the primary's oplog, [Always] flush *)
  mac : Wire.session_mac;  (** one session key, used by both ends *)
  mutable hits : int;
  mutable attempts : int;
}

let node ~shards =
  {
    shards =
      Array.init shards (fun i ->
          let db = shard_db i in
          let pending = ref [] in
          Encdb.set_on_change db (Some (fun ch -> pending := ch :: !pending));
          { db; pending; snap = Snapshot.of_db db });
    log = None;
    mac = Wire.session_mac ~session_key:(String.make 32 'k');
    hits = 0;
    attempts = 0;
  }

let open_log node ~path ~seed =
  node.log <-
    Some
      (Oplog.create ~path ~aead:(Repl.log_aead ~master)
         ~nonce:(Repl.log_nonce ~rng:(Secdb_util.Rng.create ~seed ()))
         ())

let close node = Option.iter Oplog.close node.log

(* The shard executor's job: [Server.dispatch] (parse, then [exec_stmt]),
   then the primary's oplog append and the snapshot fold, before the
   reply.  [plan_of_select] is called on its own as well, to time the
   planner; [exec_stmt] plans again internally, so the stitch leaves
   [sql.plan] out. *)
let job r node sh src =
  let result =
    match span r "sql.parse" (fun () -> Parser.parse src) with
    | Error e -> Error (Wire.App, e)
    | Ok stmt -> (
        (match stmt with
        | Ast.Select s -> ignore (span r "sql.plan" (fun () -> Engine.plan_of_select sh.db s))
        | _ -> ());
        match span r "sql.exec" (fun () -> Engine.exec_stmt sh.db stmt) with
        | Ok o -> Ok (Wire.Outcome o)
        | Error e -> Error (Wire.App, e))
  in
  (match List.rev !(sh.pending) with
  | [] -> ()
  | changes ->
      sh.pending := [];
      Option.iter
        (fun w ->
          span r "core.oplog_append" (fun () ->
              List.iter (fun ch -> ignore (Oplog.append w (Repl.op_of_change ch))) changes))
        node.log;
      span r "sql.snapshot_apply" (fun () ->
          sh.snap <- List.fold_left Snapshot.apply sh.snap changes));
  result

let exec_routed r node = function
  | Wire.Sql src -> (
      match span r "sql.parse" (fun () -> Parser.parse src) with
      | Error e -> Error (Wire.App, e)
      | Ok stmt -> (
          let sh =
            node.shards.(Shard.key_index ~shards:(Array.length node.shards) (Ast.stmt_table stmt))
          in
          node.attempts <- node.attempts + 1;
          match span r "sql.snapshot_read" (fun () -> Engine.exec_snapshot sh.snap stmt) with
          | Some res ->
              node.hits <- node.hits + 1;
              Result.fold res
                ~ok:(fun o -> Ok (Wire.Outcome o))
                ~error:(fun e -> Error (Wire.App, e))
          | None -> span r "executor" (fun () -> job r node sh src)))
  | _ -> invalid_arg "Replay.exec_routed: SQL only"

let unframe = function
  | Ok (Wire.Request { id; body; mac }) -> (id, body, mac)
  | _ -> failwith "replay: request frame did not round-trip"

(* One request, client to server and back: encode and MAC, unframe and
   verify, route and execute, encode the reply and decode it again.
   Returns the decoded reply and the bytes both frames put on the wire. *)
let request r node ~id sql =
  span r "request" @@ fun () ->
  let bytes =
    span r "net.req_encode" (fun () ->
        let body = Wire.encode_req (Wire.Sql sql) in
        let mac = Wire.request_mac_keyed node.mac ~id ~body in
        Wire.frame_to_bytes (Wire.Request { id; body; mac }))
  in
  let req =
    span r "net.req_decode" (fun () ->
        let id, body, mac = unframe (Wire.frame_of_bytes bytes) in
        let expected = Wire.request_mac_keyed node.mac ~id ~body in
        if not (Secdb_util.Xbytes.constant_time_equal mac expected) then
          failwith "replay: request MAC mismatch";
        match Wire.decode_req body with Ok q -> q | Error e -> failwith ("replay: " ^ e))
  in
  let result = exec_routed r node req in
  let reply, resp =
    span r "net.resp" (fun () ->
        let reply =
          Wire.frame_to_bytes (Wire.Response { id; result = Result.map Wire.encode_resp result })
        in
        match Wire.frame_of_bytes reply with
        | Ok (Wire.Response { result = Ok body; _ }) ->
            (reply, Result.map_error (fun e -> (Wire.Frame, e)) (Wire.decode_resp body))
        | Ok (Wire.Response { result = Error e; _ }) -> (reply, Error e)
        | _ -> failwith "replay: response frame did not round-trip")
  in
  (resp, String.length bytes + String.length reply + 8)

(* --- counters ------------------------------------------------------------- *)

let counter_names =
  [
    "aead.decrypts"; "aead.encrypts"; "table.cells_decrypted"; "walker.false_positives";
    "oplog.syncs";
  ]

let counters () = List.map (fun n -> Metrics.value (Metrics.counter n)) counter_names

(* --- one traced pass ------------------------------------------------------ *)

type pass = {
  replies : (Wire.resp, Wire.err_code * string) result list;
  wall_ns : int;
  bytes : int;
  counts : (string * int) list;  (** counter deltas over the pass *)
  rows : int;  (** rows returned *)
}

let pass r node sqls =
  let c0 = counters () in
  let t0 = ns () in
  let bytes = ref 0 and rows = ref 0 in
  let replies =
    List.mapi
      (fun i sql ->
        r.req <- i;
        let resp, b = request r node ~id:(i + 1) sql in
        bytes := !bytes + b;
        (match resp with
        | Ok (Wire.Outcome (Engine.Rows { rows = rs; _ })) -> rows := !rows + List.length rs
        | _ -> ());
        resp)
      sqls
  in
  let wall_ns = ns () - t0 in
  let counts = List.combine counter_names (List.map2 ( - ) (counters ()) c0) in
  { replies; wall_ns; bytes = !bytes; counts; rows = !rows }

(* Per-request share of each stage: the median call's self time, times
   calls per request. *)
let stages spans ~ops =
  let calls = Hashtbl.create 16 in
  List.iter (fun ((s : Stats.span), t) -> Hashtbl.add calls s.name t) (Stats.self_times spans);
  fun name ->
    let ts = Hashtbl.find_all calls name in
    Stats.median_int ts * List.length ts / max 1 ops

let span_json ~workload (s : Stats.span) =
  Printf.sprintf
    {|{"workload":"%s","name":"%s","req":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}|}
    workload s.name s.req s.id s.parent s.start_ns s.stop_ns
