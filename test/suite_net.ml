(* The networked path: wire codec roundtrips, the authenticated session
   handshake, pipelined clients against a live server compared
   byte-for-byte with the in-process dispatcher, and the failure modes —
   tampered, oversized, malformed and half-open connections. *)

open Secdb_net
module Value = Secdb_db.Value

let master = "suite-net master key"
let auth_key = Wire.auth_key_of_master master
let seed = Int64.of_int Test_seed.seed

let mkdb ?(shard = 0) () =
  (* disjoint seed and id ranges per shard, as the server API asks *)
  Secdb.Encdb.create
    ~seed:(Int64.add seed (Int64.of_int shard))
    ~master
    ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax)
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Every test gets its own socket in a short-lived tmpdir (Unix socket
   paths must stay under ~100 bytes). *)
let with_server ?(config = Server.config ~auth_key ()) ?db f =
  let dir = Filename.temp_file "secdbnet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let db = match db with Some db -> db | None -> fun shard -> mkdb ~shard () in
  let srv =
    match Server.create ~seed:7L ~config ~db (Wire.Unix_sock path) with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" e
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (Wire.Unix_sock path))

let connect ?(key = auth_key) ?timeout addr =
  match Client.connect ~attempts:20 ~backoff:0.02 ?timeout ~seed ~auth_key:key addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

(* --- wire codec ---------------------------------------------------------- *)

let sample_values =
  [
    Value.Null;
    Value.Bool true;
    Value.Bool false;
    Value.Int 0L;
    Value.Int Int64.min_int;
    Value.Int Int64.max_int;
    Value.Text "";
    Value.Text "plain";
    Value.Text (String.init 256 Char.chr);
    Value.Bytes "\x00\xff\x00";
  ]

let sample_reqs =
  [
    Wire.Ping "";
    Wire.Ping (String.make 1000 'p');
    Wire.Stats `Text;
    Wire.Stats `Json;
    Wire.Sql "SELECT * FROM t WHERE v = 'x'";
    Wire.Repl_pull { ack = 0; max = 256 };
    Wire.Repl_pull { ack = 123456; max = 1 };
    Wire.Repl_root;
  ]

let test_req_roundtrip () =
  List.iter
    (fun req ->
      match Wire.decode_req (Wire.encode_req req) with
      | Ok req' when req = req' -> ()
      | Ok _ -> Alcotest.failf "req %s decoded to a different request" (Wire.op_name req)
      | Error e -> Alcotest.failf "req %s: %s" (Wire.op_name req) e)
    sample_reqs;
  (match Wire.decode_req "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty request body accepted");
  match Wire.decode_req "\xee" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op byte accepted"

let test_resp_roundtrip () =
  let samples =
    [
      Wire.Pong "payload";
      Wire.Stats_dump "counter x 1\n";
      Wire.Outcome (Secdb_sql.Engine.Rows { columns = [ "a"; "b" ]; rows = [ sample_values; [] ] });
      Wire.Outcome (Secdb_sql.Engine.Rows { columns = []; rows = [] });
      Wire.Outcome (Secdb_sql.Engine.Affected 41);
      Wire.Outcome Secdb_sql.Engine.Created;
      Wire.Outcome (Secdb_sql.Engine.Plan "seq scan");
      Wire.Repl_records { durable = 9; records = [ (0, "sealed-0"); (1, String.make 300 'r') ] };
      Wire.Repl_records { durable = 0; records = [] };
      Wire.Root { applied = 42; root = String.make 32 '\x5c' };
    ]
  in
  List.iter
    (fun resp ->
      match Wire.decode_resp (Wire.encode_resp resp) with
      | Ok resp' when resp = resp' -> ()
      | Ok _ -> Alcotest.fail "response decoded to a different value"
      | Error e -> Alcotest.failf "resp: %s" e)
    samples

let test_frame_roundtrip () =
  let frames =
    [
      Wire.Hello { version = Wire.protocol_version; nonce = String.make 16 'n' };
      Wire.Challenge { version = Wire.protocol_version; nonce = String.make 16 'c' };
      Wire.Auth (String.make 32 'a');
      Wire.Auth_ok (String.make 32 'o');
      Wire.Request { id = 0xABCDEF; body = "body"; mac = String.make 16 'm' };
      Wire.Response { id = 1; result = Ok "resp" };
      Wire.Response { id = 2; result = Error (Wire.App, "no such table") };
      Wire.Conn_error { code = Wire.Too_large; message = "frame of 123 bytes" };
    ]
  in
  List.iter
    (fun frame ->
      match Wire.frame_of_bytes (Wire.frame_to_bytes frame) with
      | Ok frame' when frame = frame' -> ()
      | Ok _ -> Alcotest.fail "frame decoded to a different value"
      | Error e -> Alcotest.failf "frame: %s" e)
    frames

let test_frame_truncation () =
  (* fixed-layout frames: every proper prefix is a structured decode
     error, never an exception or a bogus success *)
  let hello =
    Wire.frame_to_bytes (Wire.Hello { version = Wire.protocol_version; nonce = String.make 16 'n' })
  in
  for len = 0 to String.length hello - 1 do
    match Wire.frame_of_bytes (String.sub hello 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated hello of %d bytes decoded" len
  done;
  (* request frames end in a variable-length body plus a MAC trailer, so a
     long-enough prefix still parses — but only ever as a *different*
     request whose MAC trailer no longer covers its bytes, which the
     server rejects with a structured auth error *)
  let original = Wire.Request { id = 3; body = "truncate me"; mac = String.make 16 'm' } in
  let full = Wire.frame_to_bytes original in
  for len = 0 to String.length full - 1 do
    match Wire.frame_of_bytes (String.sub full 0 len) with
    | Error _ -> ()
    | Ok (Wire.Request { id; body; mac } as f) ->
        if f = original then Alcotest.failf "truncation at %d preserved the frame" len;
        let covered = String.length body + String.length mac in
        if id <> 3 || covered >= String.length full - 5 then
          Alcotest.failf "truncation at %d widened the frame" len
    | Ok _ -> Alcotest.failf "truncation at %d changed the frame type" len
  done;
  match Wire.frame_of_bytes "\x99rubbish" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted"

module G = QCheck2.Gen

let gen_str = G.(string_size (int_range 0 48))
let gen_u32 = G.int_range 0 0xffff_ffff

let gen_err_code =
  G.oneofl
    ([ Auth; Frame; Too_large; Unknown_op; Bad_payload; App; Server_error; Backpressure ]
      : Wire.err_code list)

let gen_result gen_ok =
  G.(oneof [ map Result.ok gen_ok; map2 (fun c m -> Error (c, m)) gen_err_code gen_str ])

let gen_frame =
  G.(
    oneof
      [
        map2 (fun version nonce -> Wire.Hello { version; nonce }) (int_range 0 0xffff) gen_str;
        map2 (fun version nonce -> Wire.Challenge { version; nonce }) (int_range 0 0xffff) gen_str;
        map (fun mac -> Wire.Auth mac) gen_str;
        map (fun mac -> Wire.Auth_ok mac) gen_str;
        map3 (fun id body mac -> Wire.Request { id; body; mac }) gen_u32 gen_str gen_str;
        map2 (fun id result -> Wire.Response { id; result }) gen_u32 (gen_result gen_str);
        map2 (fun code message -> Wire.Conn_error { code; message }) gen_err_code gen_str;
      ])

let prop_frame_size =
  Test_seed.qc
    (QCheck2.Test.make ~count:500 ~name:"frame_size = 4 + |frame_to_bytes|" gen_frame (fun f ->
         Wire.frame_size f = 4 + String.length (Wire.frame_to_bytes f)))

let gen_value =
  G.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int64;
        map (fun s -> Value.Text s) gen_str;
        map (fun s -> Value.Bytes s) gen_str;
      ])

let gen_resp =
  let module E = Secdb_sql.Engine in
  G.(
    frequency
      [
        (3, map (fun p -> Wire.Pong p) gen_str);
        (3, map (fun d -> Wire.Stats_dump d) gen_str);
        (* past the writer's keep bound: the buffer grows, then is dropped *)
        (1, map (fun n -> Wire.Stats_dump (String.make n 's')) (int_range 65_000 200_000));
        ( 3,
          map
            (fun o -> Wire.Outcome o)
            (oneof
               [
                 map2
                   (fun columns rows -> E.Rows { columns; rows })
                   (small_list gen_str)
                   (small_list (small_list gen_value));
                 map (fun n -> E.Affected n) gen_u32;
                 return E.Created;
                 map (fun p -> E.Plan p) gen_str;
               ]) );
        ( 3,
          map2
            (fun durable records -> Wire.Repl_records { durable; records })
            gen_u32
            (small_list (pair gen_u32 gen_str)) );
        (3, map2 (fun applied root -> Wire.Root { applied; root }) gen_u32 gen_str);
      ])

(* --- decoder totality ------------------------------------------------------ *)

let gen_req =
  G.(
    oneof
      [
        map (fun p -> Wire.Ping p) gen_str;
        oneofl [ Wire.Stats `Text; Wire.Stats `Json; Wire.Repl_root ];
        map (fun q -> Wire.Sql q) gen_str;
        map2 (fun ack max -> Wire.Repl_pull { ack; max }) gen_u32 gen_u32;
      ])

(* A valid encoding with a few random edits: a byte overwritten, the
   tail cut off, or a byte inserted. *)
let gen_mutated gen_bytes =
  G.(
    map
      (fun (s, edits) ->
        List.fold_left
          (fun s (kind, i, c) ->
            let n = String.length s in
            let i = i mod (n + 1) in
            match kind with
            | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
            | 1 -> String.sub s 0 i
            | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
          s edits)
      (pair gen_bytes (list_size (int_range 1 4) (triple (int_range 0 2) nat char))))

let decodes_totally f s = match f s with Ok _ | Error _ -> true | exception _ -> false

(* Every decoder of network bytes returns [Ok] or [Error] on any input —
   random bytes, or a valid request, reply or frame with edits — and
   never raises. *)
let prop_decoders_total =
  Test_seed.qc
    (QCheck2.Test.make ~count:2000 ~name:"wire decoders are total"
       G.(
         oneof
           [
             string_size (int_range 0 64);
             gen_mutated (map Wire.encode_req gen_req);
             gen_mutated (map Wire.encode_resp gen_resp);
             gen_mutated (map Wire.frame_to_bytes gen_frame);
           ])
       (fun s ->
         decodes_totally Wire.decode_req s
         && decodes_totally Wire.decode_request s
         && decodes_totally Wire.decode_resp s
         && decodes_totally Wire.frame_of_bytes s))

(* The bytes of the removed cell RPCs (requests and replies 0x03–0x07)
   decode to nothing, whatever follows them; a request is classified as
   an unknown op rather than a bad payload. *)
let prop_retired_bytes_rejected =
  Test_seed.qc
    (QCheck2.Test.make ~count:500 ~name:"retired op bytes 0x03-0x07 are errors"
       G.(pair (int_range 0x03 0x07) (string_size (int_range 0 64)))
       (fun (op, rest) ->
         let body = String.make 1 (Char.chr op) ^ rest in
         Result.is_error (Wire.decode_req body)
         && Result.is_error (Wire.decode_resp body)
         && match Wire.decode_request body with Error (Wire.Unknown_op, _) -> true | _ -> false))

(* Everything [write] puts on a fresh regular file (always writable, so
   the select-sliced writers never wait). *)
let capture write =
  let path = Filename.temp_file "secdbwire" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let r = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> write fd) in
  (r, In_channel.with_open_bin path In_channel.input_all)

(* One writer across every case, as a connection reuses it for every
   reply: a large reply in between must not disturb the next one. *)
let prop_reply_writer_bytes =
  let w = Wire.reply_writer () in
  Test_seed.qc
    (QCheck2.Test.make ~count:200 ~name:"reused reply writer = write_frame bytes"
       G.(pair gen_u32 (gen_result gen_resp))
       (fun (id, result) ->
         let ok, expected =
           capture (fun fd ->
               Wire.write_frame ~timeout:5. fd
                 (Wire.Response { id; result = Result.map Wire.encode_resp result }))
         in
         let (size, sent), got =
           capture (fun fd ->
               let size = Wire.encode_reply w ~id result in
               (size, Wire.send_reply ~timeout:5. w fd))
         in
         ok = Ok () && sent = Ok () && got = expected && size = String.length got))

let test_session_secrets () =
  let k1 = Wire.auth_key_of_master master in
  let k2 = Wire.auth_key_of_master master in
  Alcotest.(check int) "auth key length" 32 (String.length k1);
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check bool) "not the master" false (k1 = master);
  let cn = String.make 16 'c' and sn = String.make 16 's' in
  let hm = Wire.handshake_mac ~auth_key:k1 ~client_nonce:cn ~server_nonce:sn in
  let am = Wire.accept_mac ~auth_key:k1 ~client_nonce:cn ~server_nonce:sn in
  let sk = Wire.session_key ~auth_key:k1 ~client_nonce:cn ~server_nonce:sn in
  Alcotest.(check bool) "domains separated" true (hm <> am && am <> sk && hm <> sk);
  let sk' = Wire.session_key ~auth_key:k1 ~client_nonce:cn ~server_nonce:(String.make 16 'z') in
  Alcotest.(check bool) "fresh per handshake" true (sk <> sk');
  Alcotest.(check int) "request mac is 16 bytes" 16
    (String.length (Wire.request_mac ~session_key:sk ~id:1 ~body:"b"))

(* --- live server --------------------------------------------------------- *)

(* One client's scripted burst; tables are per-client so concurrent
   clients do not affect each other's answers. *)
let script i =
  let t = Printf.sprintf "t%d" i in
  [
    Wire.Sql (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, v TEXT)" t);
    Wire.Sql (Printf.sprintf "INSERT INTO %s VALUES (0, '%s-zero')" t t);
    Wire.Sql (Printf.sprintf "INSERT INTO %s VALUES (1, '%s-one')" t t);
    Wire.Sql (Printf.sprintf "INSERT INTO %s VALUES (2, '%s-one')" t t);
    Wire.Sql (Printf.sprintf "CREATE INDEX ON %s (v)" t);
    Wire.Sql (Printf.sprintf "SELECT id, v FROM %s WHERE v = '%s-one'" t t);
    Wire.Sql (Printf.sprintf "SELECT v FROM %s WHERE id = 0" t);
    Wire.Sql (Printf.sprintf "SELECT v FROM %s" t);
    (* point lookups — the snapshot fast path on the server — must stay
       byte-identical to the in-process dispatcher, indexed or not *)
    Wire.Sql (Printf.sprintf "SELECT id, v FROM %s WHERE v = '%s-one' ORDER BY id DESC" t t);
    Wire.Sql (Printf.sprintf "SELECT v FROM %s WHERE id = 1" t);
    Wire.Sql (Printf.sprintf "SELECT count(*) FROM %s" t);
    (* range queries over the wire: the bucketized index is built on the
       shard, the plan is pinned by EXPLAIN, and BETWEEN answers (snapshot
       fast path included) must match the in-process dispatcher *)
    Wire.Sql (Printf.sprintf "CREATE RANGE INDEX ON %s (id) BUCKETS 2" t);
    Wire.Sql (Printf.sprintf "EXPLAIN SELECT v FROM %s WHERE id BETWEEN 0 AND 2" t);
    Wire.Sql (Printf.sprintf "SELECT id, v FROM %s WHERE id BETWEEN 1 AND 2 ORDER BY id DESC" t);
    Wire.Sql (Printf.sprintf "SELECT v FROM %s WHERE id BETWEEN 5 AND 3" t);
    Wire.Ping (t ^ " done");
  ]

let encode_result = function
  | Ok resp -> "ok:" ^ Wire.encode_resp resp
  | Error (code, msg) -> Printf.sprintf "err:%d:%s" (Wire.err_code_to_int code) msg

let client_error_to_result = function
  | Ok resp -> Ok resp
  | Error (Client.Remote (code, msg)) -> Error (code, msg)
  | Error e -> Alcotest.failf "client transport error: %s" (Client.error_to_string e)

let test_pipelined_matches_inprocess ~shards () =
  let nclients = 4 in
  with_server ~config:(Server.config ~auth_key ~shards ()) @@ fun addr ->
  let results = Array.make nclients [] in
  let workers =
    List.init nclients (fun i ->
        Thread.create
          (fun () ->
            let c = connect addr in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                results.(i) <-
                  Client.pipeline c (script i)
                  |> List.map (fun r -> encode_result (client_error_to_result r))))
          ())
  in
  List.iter Thread.join workers;
  (* replay the same scripts against a fresh db through the dispatcher the
     server itself uses: the networked bytes must be identical *)
  let ref_db = mkdb () in
  for i = 0 to nclients - 1 do
    let expected = List.map (fun req -> encode_result (Server.dispatch ref_db req)) (script i) in
    List.iteri
      (fun j (exp, got) ->
        if exp <> got then
          Alcotest.failf "client %d request %d: wire result differs from in-process" i j)
      (List.combine expected results.(i))
  done

(* A BETWEEN answered over the wire must be byte-identical to the
   in-process dispatcher on the same data, for any data set and any
   window — duplicates, empty tables, bounds outside the domain and
   inverted windows included. *)
let prop_wire_range_matches_inprocess =
  Test_seed.qc
    (QCheck.Test.make ~count:8 ~name:"wire BETWEEN matches in-process dispatch"
       QCheck.(
         triple
           (list_of_size Gen.(int_range 0 24) (int_range 0 50))
           (int_range (-5) 55) (int_range (-5) 55))
       (fun (vals, lo, hi) ->
         let stmts =
           [ Wire.Sql "CREATE TABLE r (id INT CLEAR, v TEXT)" ]
           @ List.map
               (fun n -> Wire.Sql (Printf.sprintf "INSERT INTO r VALUES (%d, 'v%d')" n n))
               vals
           @ [
               Wire.Sql "CREATE RANGE INDEX ON r (id) BUCKETS 4";
               Wire.Sql (Printf.sprintf "EXPLAIN SELECT v FROM r WHERE id BETWEEN %d AND %d" lo hi);
               Wire.Sql (Printf.sprintf "SELECT id, v FROM r WHERE id BETWEEN %d AND %d" lo hi);
               Wire.Sql (Printf.sprintf "SELECT count(*) FROM r WHERE id BETWEEN %d AND %d" lo hi);
             ]
         in
         let wire =
           with_server ~config:(Server.config ~auth_key ~shards:1 ()) @@ fun addr ->
           let c = connect addr in
           Fun.protect
             ~finally:(fun () -> Client.close c)
             (fun () ->
               Client.pipeline c stmts
               |> List.map (fun r -> encode_result (client_error_to_result r)))
         in
         let ref_db = mkdb () in
         let expected = List.map (fun req -> encode_result (Server.dispatch ref_db req)) stmts in
         wire = expected))

(* JOIN and ORDER BY over the wire on a sharded server.  Both joined
   tables are chosen (by the same FNV routing the server uses) to land on
   one shard, so the shard's executor owns both; the pipelined responses
   must be byte-identical to the in-process dispatcher on one database.
   A JOIN whose tables live on different shards has no such executor and
   must come back as a structured error. *)
let test_sharded_join () =
  let shards = 4 in
  let slot n = Secdb_db.Shard.key_index ~shards n in
  let rec pick i p =
    let n = Printf.sprintf "jt%d" i in
    if p n then n else pick (i + 1) p
  in
  let t1 = "jt0" in
  let t2 = pick 1 (fun n -> slot n = slot t1) in
  let t3 = pick 1 (fun n -> slot n <> slot t1) in
  let stmts =
    List.map
      (fun s -> Wire.Sql s)
      [
        Printf.sprintf "CREATE TABLE %s (id INT CLEAR, v TEXT)" t1;
        Printf.sprintf "CREATE TABLE %s (id INT CLEAR, w TEXT)" t2;
        Printf.sprintf "INSERT INTO %s VALUES (1, 'a')" t1;
        Printf.sprintf "INSERT INTO %s VALUES (2, 'b')" t1;
        Printf.sprintf "INSERT INTO %s VALUES (3, 'c')" t1;
        Printf.sprintf "INSERT INTO %s VALUES (2, 'x')" t2;
        Printf.sprintf "INSERT INTO %s VALUES (3, 'y')" t2;
        Printf.sprintf "INSERT INTO %s VALUES (3, 'z')" t2;
        Printf.sprintf "CREATE INDEX ON %s (id)" t2;
        Printf.sprintf "SELECT * FROM %s JOIN %s ON %s.id = %s.id" t1 t2 t1 t2;
        Printf.sprintf "SELECT v, w FROM %s JOIN %s ON %s.id = %s.id ORDER BY w DESC LIMIT 2"
          t1 t2 t1 t2;
        (* ambiguous unqualified id: the structured error must match too *)
        Printf.sprintf "SELECT * FROM %s JOIN %s ON id = id" t1 t2;
        Printf.sprintf "EXPLAIN SELECT * FROM %s JOIN %s ON %s.id = %s.id" t1 t2 t1 t2;
      ]
  in
  with_server ~config:(Server.config ~auth_key ~shards ()) @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let wire =
    Client.pipeline c stmts |> List.map (fun r -> encode_result (client_error_to_result r))
  in
  let ref_db = mkdb () in
  let expected = List.map (fun req -> encode_result (Server.dispatch ref_db req)) stmts in
  Alcotest.(check (list string)) "pipelined JOINs match the in-process path" expected wire;
  (* cross-shard: refused structurally, never answered from half the data *)
  ignore
    (client_error_to_result
       (Client.call c (Wire.Sql (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, u TEXT)" t3))));
  match
    client_error_to_result
      (Client.call c (Wire.Sql (Printf.sprintf "SELECT * FROM %s JOIN %s ON %s.id = %s.id" t1 t3 t1 t3)))
  with
  | Error (Wire.App, msg) ->
      Alcotest.(check bool) "names the refusal" true (contains ~affix:"cross-shard JOIN" msg)
  | Ok _ -> Alcotest.fail "cross-shard JOIN was answered"
  | Error (code, msg) ->
      Alcotest.failf "wrong error class %d: %s" (Wire.err_code_to_int code) msg

(* --- snapshot fast path --------------------------------------------------- *)

let counter_value dump name =
  String.split_on_char '\n' dump
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "counter"; n; v ] when n = name -> int_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0

let test_snapshot_fast_path () =
  (* metric mutation is gated on the Obs switch; the hit counter is the
     proof the fast path actually fired *)
  Secdb_obs.Obs.with_enabled @@ fun () ->
  with_server ~config:(Server.config ~auth_key ~shards:2 ()) @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql q =
    match Client.call c (Wire.Sql q) with
    | Ok (Wire.Outcome o) -> o
    | Ok _ -> Alcotest.failf "sql %s: unexpected response form" q
    | Error e -> Alcotest.failf "sql %s: %s" q (Client.error_to_string e)
  in
  let stats () =
    match Client.call c (Wire.Stats `Text) with
    | Ok (Wire.Stats_dump d) -> d
    | Ok _ | Error _ -> Alcotest.fail "stats rpc"
  in
  ignore (sql "CREATE TABLE kv (k TEXT CLEAR, v TEXT)");
  ignore (sql "CREATE INDEX ON kv (k)");
  ignore (sql "INSERT INTO kv VALUES ('a', 'one')");
  let hits0 = counter_value (stats ()) "shard.snapshot_hits" in
  (match sql "SELECT v FROM kv WHERE k = 'a'" with
  | Secdb_sql.Engine.Rows { rows = [ [ Value.Text "one" ] ]; _ } -> ()
  | _ -> Alcotest.fail "point select answer");
  let hits1 = counter_value (stats ()) "shard.snapshot_hits" in
  Alcotest.(check bool) "served from the snapshot" true (hits1 > hits0);
  (* read-your-writes on one connection: the snapshot is republished
     before a mutation's response, so the next select sees it *)
  ignore (sql "UPDATE kv SET v = 'two' WHERE k = 'a'");
  (match sql "SELECT v FROM kv WHERE k = 'a'" with
  | Secdb_sql.Engine.Rows { rows = [ [ Value.Text "two" ] ]; _ } -> ()
  | _ -> Alcotest.fail "stale read after own write");
  (* BETWEEN rides the same snapshot path: the hit counter must move *)
  ignore (sql "CREATE RANGE INDEX ON kv (k) BUCKETS 2");
  let hits2 = counter_value (stats ()) "shard.snapshot_hits" in
  (match sql "SELECT v FROM kv WHERE k BETWEEN 'a' AND 'z'" with
  | Secdb_sql.Engine.Rows { rows = [ [ Value.Text "two" ] ]; _ } -> ()
  | _ -> Alcotest.fail "range select answer");
  let hits3 = counter_value (stats ()) "shard.snapshot_hits" in
  Alcotest.(check bool) "range served from the snapshot" true (hits3 > hits2);
  ignore (sql "DELETE FROM kv WHERE k = 'a'");
  match sql "SELECT v FROM kv WHERE k = 'a'" with
  | Secdb_sql.Engine.Rows { rows = []; _ } -> ()
  | _ -> Alcotest.fail "deleted row still visible through the snapshot"

(* A same-shard JOIN is answered by the snapshot like any other SELECT:
   the hit counter moves and the miss counter does not, writes to the
   inner table are visible to the next JOIN on the connection, and a JOIN
   across shards is still refused with the structured error. *)
let test_snapshot_join () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let shards = 4 in
  let slot n = Secdb_db.Shard.key_index ~shards n in
  let rec pick i p =
    let n = Printf.sprintf "sj%d" i in
    if p n then n else pick (i + 1) p
  in
  let t1 = "sj0" in
  let t2 = pick 1 (fun n -> slot n = slot t1) in
  let t3 = pick 1 (fun n -> slot n <> slot t1) in
  with_server ~config:(Server.config ~auth_key ~shards ()) @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql q =
    match Client.call c (Wire.Sql q) with
    | Ok (Wire.Outcome o) -> o
    | Ok _ -> Alcotest.failf "sql %s: unexpected response form" q
    | Error e -> Alcotest.failf "sql %s: %s" q (Client.error_to_string e)
  in
  let counters () =
    match Client.call c (Wire.Stats `Text) with
    | Ok (Wire.Stats_dump d) ->
        (counter_value d "shard.snapshot_hits", counter_value d "shard.snapshot_misses")
    | Ok _ | Error _ -> Alcotest.fail "stats rpc"
  in
  List.iter
    (fun q -> ignore (sql q))
    [
      Printf.sprintf "CREATE TABLE %s (id INT CLEAR, v TEXT)" t1;
      Printf.sprintf "CREATE TABLE %s (id INT CLEAR, w TEXT)" t2;
      Printf.sprintf "CREATE INDEX ON %s (id)" t2;
      Printf.sprintf "INSERT INTO %s VALUES (1, 'a')" t1;
      Printf.sprintf "INSERT INTO %s VALUES (2, 'b')" t1;
      Printf.sprintf "INSERT INTO %s VALUES (2, 'x')" t2;
      Printf.sprintf "INSERT INTO %s VALUES (2, 'y')" t2;
    ];
  let join () =
    match
      sql
        (Printf.sprintf "SELECT v, w FROM %s JOIN %s ON %s.id = %s.id ORDER BY w DESC LIMIT 2" t1
           t2 t1 t2)
    with
    | Secdb_sql.Engine.Rows { rows; _ } ->
        List.map (List.map (function Value.Text s -> s | _ -> "?")) rows
    | _ -> Alcotest.fail "join answer"
  in
  let rows = Alcotest.(list (list string)) in
  let hits0, misses0 = counters () in
  Alcotest.check rows "join" [ [ "b"; "y" ]; [ "b"; "x" ] ] (join ());
  (* read-your-writes through the snapshot: an INSERT, then an UPDATE,
     on the inner table *)
  ignore (sql (Printf.sprintf "INSERT INTO %s VALUES (1, 'z')" t2));
  Alcotest.check rows "sees own insert" [ [ "a"; "z" ]; [ "b"; "y" ] ] (join ());
  ignore (sql (Printf.sprintf "UPDATE %s SET w = 'c' WHERE w = 'z'" t2));
  Alcotest.check rows "sees own update" [ [ "b"; "y" ]; [ "b"; "x" ] ] (join ());
  let hits1, misses1 = counters () in
  Alcotest.(check int) "every join served from the snapshot" 3 (hits1 - hits0);
  Alcotest.(check int) "no join fell through to the executor" misses0 misses1;
  ignore (sql (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, u TEXT)" t3));
  match
    client_error_to_result
      (Client.call c (Wire.Sql (Printf.sprintf "SELECT * FROM %s JOIN %s ON %s.id = %s.id" t1 t3 t1 t3)))
  with
  | Error (Wire.App, msg) ->
      Alcotest.(check bool) "cross-shard refusal" true (contains ~affix:"cross-shard JOIN" msg)
  | Ok _ -> Alcotest.fail "cross-shard JOIN was answered"
  | Error (code, msg) -> Alcotest.failf "wrong error class %d: %s" (Wire.err_code_to_int code) msg

let test_interleaved_single_connection () =
  (* two in-flight batches interleaved on one connection: responses match
     their request ids, not arrival luck *)
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let post req = match Client.post c req with Ok id -> id | Error e -> Alcotest.failf "post: %s" (Client.error_to_string e) in
  let a = List.map (fun i -> (post (Wire.Ping (Printf.sprintf "a%d" i)), Printf.sprintf "a%d" i)) [ 1; 2; 3 ] in
  let b = List.map (fun i -> (post (Wire.Ping (Printf.sprintf "b%d" i)), Printf.sprintf "b%d" i)) [ 1; 2; 3 ] in
  (* await out of posting order on purpose *)
  List.iter
    (fun (id, payload) ->
      match Client.await c id with
      | Ok (Wire.Pong p) -> Alcotest.(check string) "matched by id" payload p
      | Ok _ -> Alcotest.fail "not a pong"
      | Error e -> Alcotest.failf "await: %s" (Client.error_to_string e))
    (b @ a)

(* Group commit keeps a connection's order.  In one burst on one
   connection: 200 INSERTs and two UPDATEs of all of them on shard A, an
   INSERT on A, an INSERT on shard B, then a SELECT of each.  The SELECTs
   see both rows: a mutation bound for another shard than the
   connection's last one waits for it, and a read waits for every
   mutation queued before it.  The whole burst is in flight at once
   (window and in-flight cap above its length), and each UPDATE opens
   and re-seals 200 cells, so the server reads the last requests long
   before shard A's executor is through the work queued ahead of them. *)
let test_pipelined_writes_visible () =
  let shards = 2 and window = 512 in
  let slot n = Secdb_db.Shard.key_index ~shards n in
  let a = "gca" in
  let rec pick i =
    let n = Printf.sprintf "gcb%d" i in
    if slot n <> slot a then n else pick (i + 1)
  in
  let b = pick 0 in
  with_server ~config:(Server.config ~auth_key ~shards ~max_inflight:window ()) @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql fmt = Printf.ksprintf (fun q -> Wire.Sql q) fmt in
  let reqs =
    [ sql "CREATE TABLE %s (id INT CLEAR, v TEXT)" a; sql "CREATE TABLE %s (id INT CLEAR, v TEXT)" b ]
    @ List.init 200 (fun i -> sql "INSERT INTO %s VALUES (%d, 'bulk')" a (i + 100))
    @ [
        sql "UPDATE %s SET v = 'again' WHERE v = 'bulk'" a;
        sql "UPDATE %s SET v = 'bulk' WHERE v = 'again'" a;
        sql "INSERT INTO %s VALUES (1, 'on a')" a;
        sql "INSERT INTO %s VALUES (2, 'on b')" b;
        sql "SELECT v FROM %s WHERE id = 1" a;
        sql "SELECT v FROM %s WHERE id = 2" b;
        sql "SELECT count(*) FROM %s" a;
      ]
  in
  let rows = function
    | Ok (Wire.Outcome (Secdb_sql.Engine.Rows { rows; _ })) -> rows
    | Ok _ -> Alcotest.fail "not rows"
    | Error e -> Alcotest.failf "select: %s" (Client.error_to_string e)
  in
  match List.rev (Client.pipeline ~window c reqs) with
  | count :: on_b :: on_a :: writes ->
      List.iter
        (function Ok _ -> () | Error e -> Alcotest.failf "write: %s" (Client.error_to_string e))
        writes;
      let cell = Alcotest.(list (list string)) in
      let show = List.map (List.map (Fmt.str "%a" Value.pp)) in
      Alcotest.check cell "row on shard A" [ [ "\"on a\"" ] ] (show (rows on_a));
      Alcotest.check cell "row on shard B" [ [ "\"on b\"" ] ] (show (rows on_b));
      Alcotest.check cell "every write on A" [ [ "201" ] ] (show (rows count))
  | _ -> Alcotest.fail "missing replies"

(* A queued mutation is counted where its result is known — when its
   executor fills the reply, not when the reader queues it: each SQL
   request adds one observation to [net.rpc_latency{op=sql}], and a
   mutation that fails on the executor counts in [net.rpc_errors]. *)
let test_deferred_reply_metrics () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let module M = Secdb_obs.Metrics in
  let latency = M.histogram ~labels:[ ("op", "sql") ] "net.rpc_latency" in
  let errors = M.counter "net.rpc_errors" in
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n0 = M.hist_count latency and e0 = M.value errors in
  let replies =
    Client.pipeline c
      (List.map
         (fun q -> Wire.Sql q)
         [
           "CREATE TABLE dm (id INT CLEAR, v TEXT)";
           "INSERT INTO dm VALUES (1, 'a')";
           "INSERT INTO nowhere VALUES (2, 'b')";
           "INSERT INTO dm VALUES ('three', 'c')";
           "INSERT INTO dm VALUES (4, 'd')";
         ])
  in
  Alcotest.(check (list bool)) "replies" [ true; true; false; false; true ]
    (List.map Result.is_ok replies);
  Alcotest.(check int) "one latency per statement" 5 (M.hist_count latency - n0);
  Alcotest.(check int) "executor failures are errors" 2 (M.value errors - e0)

let test_tampered_request () =
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.post_corrupted c (Wire.Sql "SELECT 1") with
  | Error e -> Alcotest.failf "post: %s" (Client.error_to_string e)
  | Ok id -> (
      match Client.await c id with
      | Error (Client.Remote (Wire.Auth, _)) -> ()
      | Error e -> Alcotest.failf "expected auth error, got %s" (Client.error_to_string e)
      | Ok _ -> Alcotest.fail "tampered request was executed"));
  (* the connection survives a rejected request *)
  match Client.call c (Wire.Ping "still here") with
  | Ok (Wire.Pong "still here") -> ()
  | Ok _ | Error _ -> Alcotest.fail "connection did not survive the tamper rejection"

(* A session driven by hand, so a request body can be any bytes: returns
   a function that sends [body] under a valid MAC and reads its reply. *)
let raw_session fd =
  let send f =
    match Wire.write_frame ~timeout:5. fd f with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %s" (Wire.io_error_to_string e)
  in
  let recv () =
    match Wire.read_frame ~timeout:5. fd with
    | Ok f -> f
    | Error e -> Alcotest.failf "read: %s" (Wire.io_error_to_string e)
  in
  let client_nonce = String.make 16 'r' in
  send (Wire.Hello { version = Wire.protocol_version; nonce = client_nonce });
  let server_nonce =
    match recv () with Wire.Challenge { nonce; _ } -> nonce | _ -> Alcotest.fail "no challenge"
  in
  send (Wire.Auth (Wire.handshake_mac ~auth_key ~client_nonce ~server_nonce));
  (match recv () with Wire.Auth_ok _ -> () | _ -> Alcotest.fail "handshake refused");
  let session_key = Wire.session_key ~auth_key ~client_nonce ~server_nonce in
  fun id body ->
    send (Wire.Request { id; body; mac = Wire.request_mac ~session_key ~id ~body });
    match recv () with
    | Wire.Response { id = id'; result } when id' = id -> result
    | _ -> Alcotest.fail "expected the response to the request"

(* The cell RPCs are gone from the protocol: a correctly MAC'd request in
   the old cell-update encoding (op 0x03, then table, row, column, value)
   is answered with a structured unknown-op error and changes nothing,
   the other retired op bytes likewise, and the connection serves the
   next request. *)
let test_retired_op_unknown () =
  with_server ~config:(Server.config ~auth_key ~shards:1 ()) @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql q =
    match Client.call c (Wire.Sql q) with
    | Ok (Wire.Outcome o) -> o
    | Ok _ -> Alcotest.failf "sql %s: unexpected response form" q
    | Error e -> Alcotest.failf "sql %s: %s" q (Client.error_to_string e)
  in
  ignore (sql "CREATE TABLE t (id INT CLEAR, v TEXT)");
  ignore (sql "INSERT INTO t VALUES (0, 'a')");
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Unix.connect fd (Wire.sockaddr_of_addr addr);
  let request = raw_session fd in
  let str s =
    let b = Bytes.create 4 in
    Secdb_util.Xbytes.set_uint32_be b 0 (String.length s);
    Bytes.to_string b ^ s
  in
  let put_cell = "\x03" ^ str "t" ^ "\x00\x00\x00\x00" ^ str "v" ^ str (Value.encode (Value.Text "z")) in
  List.iteri
    (fun i body ->
      match request (i + 1) body with
      | Error (Wire.Unknown_op, _) -> ()
      | Error (code, msg) ->
          Alcotest.failf "op 0x%02x: wrong error class %s: %s" (Char.code body.[0])
            (Wire.err_code_to_string code) msg
      | Ok _ -> Alcotest.failf "op 0x%02x was executed" (Char.code body.[0]))
    [ put_cell; "\x04"; "\x05"; "\x06"; "\x07" ];
  (match request 9 (Wire.encode_req (Wire.Ping "still open")) with
  | Ok body -> (
      match Wire.decode_resp body with
      | Ok (Wire.Pong "still open") -> ()
      | _ -> Alcotest.fail "ping answered with something else")
  | Error (_, msg) -> Alcotest.failf "ping after unknown ops: %s" msg);
  match sql "SELECT v FROM t" with
  | Secdb_sql.Engine.Rows { rows = [ [ Value.Text "a" ] ]; _ } -> ()
  | _ -> Alcotest.fail "the retired put_cell changed the table"

let test_wrong_credential () =
  with_server @@ fun addr ->
  match
    Client.connect ~attempts:20 ~backoff:0.02
      ~auth_key:(Wire.auth_key_of_master "some other master") addr
  with
  | Ok _ -> Alcotest.fail "handshake succeeded with the wrong credential"
  | Error e -> Alcotest.(check bool) ("mentions auth: " ^ e) true (contains ~affix:"auth" e)

let test_oversized_frame () =
  let config = Server.config ~auth_key ~max_frame:4096 () in
  with_server ~config @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.call c (Wire.Sql (String.make 8192 'x')) with
  | Error (Client.Conn (Wire.Too_large, _)) -> ()
  | Error e -> Alcotest.failf "expected too-large, got %s" (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let test_malformed_hello () =
  with_server @@ fun addr ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Unix.connect fd (Wire.sockaddr_of_addr addr);
  (* tag 0x7f is no frame we know: [len=5][tag][4 junk bytes] *)
  let junk = "\x00\x00\x00\x05\x7fjunk" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  match Wire.read_frame ~timeout:5. fd with
  | Ok (Wire.Conn_error { code = Wire.Frame; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected a structured frame error"
  | Error e -> Alcotest.failf "read: %s" (Wire.io_error_to_string e)

let test_half_open_hits_read_timeout () =
  let config = Server.config ~auth_key ~read_timeout:0.3 () in
  with_server ~config @@ fun addr ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Unix.connect fd (Wire.sockaddr_of_addr addr);
  (* send nothing: the server must give up on the half-open peer and
     close, which we observe as EOF well before the 10s cap *)
  let t0 = Unix.gettimeofday () in
  match Wire.read_frame ~timeout:10. fd with
  | Error `Eof ->
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "timely close (%.2fs)" dt) true (dt < 5.)
  | Ok _ -> Alcotest.fail "unexpected frame from a silent connection"
  | Error e -> Alcotest.failf "read: %s" (Wire.io_error_to_string e)

let test_graceful_stop_drains () =
  with_server @@ fun addr ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.call c (Wire.Ping "before stop") with
  | Ok (Wire.Pong "before stop") -> ()
  | Ok _ | Error _ -> Alcotest.fail "ping before stop failed"
(* with_server's finally runs Server.stop: reaching the end without
   hanging is the drain assertion *)

(* Connection churn leaves nothing behind: after 200 connect/close cycles,
   and with one more connection still open, stop drains and returns, and
   the live-connection gauge reads 0. *)
let test_connection_churn () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let module Metrics = Secdb_obs.Metrics in
  let total = Metrics.counter "net.connections_total" in
  let before = Metrics.value total in
  let still_open =
    with_server @@ fun addr ->
    for _ = 1 to 200 do
      Client.close (connect addr)
    done;
    let c = connect addr in
    (match Client.call c (Wire.Ping "open across stop") with
    | Ok (Wire.Pong _) -> ()
    | Ok _ | Error _ -> Alcotest.fail "ping on the held connection");
    c
  in
  Client.close still_open;
  Alcotest.(check int) "every connection accepted" 201 (Metrics.value total - before);
  Alcotest.(check int) "no connection left" 0
    (Metrics.gauge_value (Metrics.gauge "net.connections"))

let suites =
  [
    ( "net:wire",
      [
        Alcotest.test_case "request codec roundtrip" `Quick test_req_roundtrip;
        Alcotest.test_case "response codec roundtrip" `Quick test_resp_roundtrip;
        Alcotest.test_case "frame codec roundtrip" `Quick test_frame_roundtrip;
        Alcotest.test_case "truncated frames are structured errors" `Quick test_frame_truncation;
        prop_frame_size;
        prop_reply_writer_bytes;
        prop_decoders_total;
        prop_retired_bytes_rejected;
        Alcotest.test_case "session secrets are derived and domain-separated" `Quick
          test_session_secrets;
      ] );
    ( "net:server",
      [
        Alcotest.test_case "pipelined clients match the in-process path" `Quick
          (test_pipelined_matches_inprocess ~shards:1);
        Alcotest.test_case "pipelined clients match across 4 shards" `Quick
          (test_pipelined_matches_inprocess ~shards:4);
        prop_wire_range_matches_inprocess;
        Alcotest.test_case "sharded JOINs match in-process, cross-shard refused" `Quick
          test_sharded_join;
        Alcotest.test_case "point lookups ride the snapshot fast path" `Quick
          test_snapshot_fast_path;
        Alcotest.test_case "same-shard JOINs ride the snapshot" `Quick test_snapshot_join;
        Alcotest.test_case "interleaved batches match responses by id" `Quick
          test_interleaved_single_connection;
        Alcotest.test_case "pipelined writes on two shards, then reads see both" `Quick
          test_pipelined_writes_visible;
        Alcotest.test_case "queued mutations count at completion" `Quick test_deferred_reply_metrics;
        Alcotest.test_case "tampered request -> auth error, connection survives" `Quick
          test_tampered_request;
        Alcotest.test_case "retired op bytes -> structured unknown-op, connection survives" `Quick
          test_retired_op_unknown;
        Alcotest.test_case "wrong credential is refused" `Quick test_wrong_credential;
        Alcotest.test_case "oversized frame -> structured too-large" `Quick test_oversized_frame;
        Alcotest.test_case "malformed hello -> structured frame error" `Quick test_malformed_hello;
        Alcotest.test_case "half-open connection hits the read timeout" `Quick
          test_half_open_hits_read_timeout;
        Alcotest.test_case "stop drains cleanly" `Quick test_graceful_stop_drains;
        Alcotest.test_case "connection churn leaves no connection behind" `Quick
          test_connection_churn;
      ] );
  ]
