(* Replication and point-in-time recovery: sealed-record shipping between
   writers, the live primary → replica pull loop over the authenticated
   wire, Merkle-root attestation, crash matrices on both ends of the
   stream, and the two properties the design rests on — a replica is
   always an authenticated prefix of its primary, and [restore --to-op N]
   is indistinguishable from a fresh replay of the first N operations. *)

open Secdb_net
module Oplog = Secdb.Oplog
module Encdb = Secdb.Encdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Vfs = Secdb_storage.Vfs
module Fault = Secdb_storage.Vfs.Fault
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng

let master = "suite-repl master key"
let auth_key = Wire.auth_key_of_master master
let seed = Int64.of_int Test_seed.seed
let aead = Repl.log_aead ~master
let nonce () = Secdb_aead.Nonce.counter ~size:16 ()

let mkdb ?(shard = 0) () =
  (* determinism is load-bearing here: primary, replica and restore build
     shard [i] with the same seed and id ranges, which is what makes the
     replayed ciphertexts — and therefore the Merkle roots — byte-equal *)
  Encdb.create
    ~seed:(Int64.add seed (Int64.of_int shard))
    ~master
    ~profile:(Encdb.Fixed Encdb.Eax)
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let schema =
  Schema.v ~table_name:"t"
    [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]

let sample_ops n =
  let rng = Rng.create ~seed:417L () in
  Oplog.Create_table schema
  :: List.concat
       (List.init n (fun i ->
            let ins =
              Oplog.Insert
                { table = "t"; values = [ Value.Int (Int64.of_int i); Value.Text (Rng.alpha rng 8) ] }
            in
            if i mod 4 = 3 then
              [ ins; Oplog.Update { table = "t"; row = i - 1; col = "v"; value = Value.Text "e" } ]
            else [ ins ]))

let tmpdir () =
  let dir = Filename.temp_file "secdbrepl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let with_dir f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- sealed-record shipping (no network) --------------------------------- *)

let test_ship_verify_copy () =
  with_dir @@ fun dir ->
  let ppath = Filename.concat dir "p.log" and rpath = Filename.concat dir "r.log" in
  let ops = sample_ops 12 in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) ops;
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  Alcotest.(check int) "all durable records ship" (Oplog.count w) (List.length records);
  (* stateless resume: a second read from any ack returns the suffix *)
  Alcotest.(check int) "resume from 5" (List.length records - 5)
    (List.length (Oplog.read_sealed w ~from:5 ~max:1000));
  (* every record verifies stand-alone at its sequence number *)
  List.iter
    (fun (seq, sealed) ->
      match Oplog.verify_sealed ~aead ~seq sealed with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "record %d rejected: %s" seq e)
    records;
  (* a replica copying them verbatim produces a byte-identical log *)
  let r = Oplog.create ~path:rpath ~aead ~nonce:(nonce ()) () in
  (match Oplog.append_sealed r (List.map snd records) with
  | ops, Ok () -> Alcotest.(check int) "every record copied" (List.length records) (List.length ops)
  | _, Error e -> Alcotest.failf "copy rejected: %s" e);
  Oplog.close w;
  Oplog.close r;
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Alcotest.(check bool) "replica log is byte-identical" true (String.equal (read ppath) (read rpath))

let test_ship_rejects_tamper_and_splice () =
  with_dir @@ fun dir ->
  let w = Oplog.create ~path:(Filename.concat dir "p.log") ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 4);
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  let seq0, r0 = List.nth records 0 and seq1, r1 = List.nth records 1 in
  (* bit flip anywhere in the sealed bytes *)
  let flipped = Bytes.of_string r0 in
  Bytes.set flipped (String.length r0 / 2)
    (Char.chr (Char.code (Bytes.get flipped (String.length r0 / 2)) lxor 1));
  (match Oplog.verify_sealed ~aead ~seq:seq0 (Bytes.to_string flipped) with
  | Ok _ -> Alcotest.fail "tampered record verified"
  | Error _ -> ());
  (* a valid record presented at the wrong position (reorder/splice) *)
  (match Oplog.verify_sealed ~aead ~seq:seq0 r1 with
  | Ok _ -> Alcotest.fail "reordered record verified"
  | Error _ -> ());
  (* a replica writer enforces contiguity: next must be its own count *)
  let r = Oplog.create ~path:(Filename.concat dir "r.log") ~aead ~nonce:(nonce ()) () in
  (match Oplog.append_sealed r [ r1 ] with
  | _, Ok () -> Alcotest.failf "gap accepted (record %d as first)" seq1
  | ops, Error _ -> Alcotest.(check int) "no record verified" 0 (List.length ops));
  Alcotest.(check int) "nothing was written" 0 (Oplog.count r);
  (* a batch keeps exactly its verified prefix *)
  (match Oplog.append_sealed r [ r0; Bytes.to_string flipped; r1 ] with
  | _, Ok () -> Alcotest.fail "tampered batch accepted"
  | ops, Error _ -> Alcotest.(check int) "prefix verified" 1 (List.length ops));
  Alcotest.(check int) "the verified prefix was written" 1 (Oplog.count r);
  Oplog.close w;
  Oplog.close r

(* records not covered by a successful fsync never ship: the fault disk
   fails the fsync of one more append, leaving its record written but
   unacked *)
let test_durable_only_ships () =
  let ctl = Fault.make ~seed:17 () in
  let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
  let ops = sample_ops 3 in
  List.iter (fun op -> ignore (Oplog.append w op)) ops;
  let synced = Oplog.count w in
  Alcotest.(check int) "synced records ship" synced
    (List.length (Oplog.read_sealed w ~from:0 ~max:1000));
  Fault.fail_op ctl ~op:`Fsync ~after:1 ~err:`EIO;
  (match Oplog.append w (List.hd ops) with
  | _ -> Alcotest.fail "append acked without an fsync"
  | exception Vfs.Io_error _ -> ());
  Alcotest.(check int) "the record was written" (synced + 1) (Oplog.count w);
  Alcotest.(check int) "the unsynced record does not ship" synced
    (List.length (Oplog.read_sealed w ~from:0 ~max:1000));
  Oplog.close w

let test_resume_continues_history () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "p.log" in
  let rng = Rng.create ~seed:9L () in
  let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
  Alcotest.(check int) "fresh resume starts empty" 0 (Oplog.count w);
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 5);
  let n = Oplog.count w in
  Oplog.close w;
  let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
  Alcotest.(check int) "resume seats the recovered count" n (Oplog.count w);
  ignore (Oplog.append w (Oplog.Insert { table = "t"; values = [ Value.Int 99L; Value.Text "x" ] }));
  Oplog.close w;
  match Oplog.replay ~path ~aead () with
  | Ok ops -> Alcotest.(check int) "whole log still authenticates" (n + 1) (List.length ops)
  | Error e -> Alcotest.failf "replay after resume: %s" e

(* --- live primary → replica over the wire -------------------------------- *)

let shards = 2

let with_cluster ?(replica_log = false) f =
  with_dir @@ fun dir ->
  let ppath = Filename.concat dir "primary.log" in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  let config = Server.config ~auth_key ~shards () in
  let psock = Filename.concat dir "p.sock" in
  let primary =
    match
      Server.create ~seed:7L ~role:(Server.Primary w) ~config
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock psock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "primary: %s" e
  in
  Server.start primary;
  let rsock = Filename.concat dir "r.sock" in
  let rwriter =
    if replica_log then
      Some (Oplog.create ~path:(Filename.concat dir "replica.log") ~aead ~nonce:(nonce ()) ())
    else None
  in
  let replica =
    match
      Server.create ~seed:8L ~role:(Server.Replica { initial_applied = 0 }) ~config
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock rsock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "replica: %s" e
  in
  Server.start replica;
  let stop_pull = Atomic.make false in
  let applied = ref 0 in
  let puller =
    Thread.create
      (fun () ->
        Repl.run_replica
          ~connect:(fun () ->
            Client.connect ~attempts:1 ~backoff:0.01 ~seed ~auth_key (Wire.Unix_sock psock))
          ~aead ?writer:rwriter
          ~ack:(fun () ->
            match rwriter with Some w -> Oplog.count w | None -> !applied)
          ~apply:(fun op ->
            match Server.apply_op replica op with
            | Ok () ->
                incr applied;
                Ok ()
            | Error _ as e -> e)
          ~poll:0.01
          ~stop:(fun () -> Atomic.get stop_pull)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop_pull true;
      (match Thread.join puller with () -> () | exception _ -> ());
      Server.stop primary;
      Server.stop replica;
      (match rwriter with Some w -> (try Oplog.close w with _ -> ()) | None -> ());
      try Oplog.close w with _ -> ())
    (fun () -> f ~primary:(Wire.Unix_sock psock) ~replica:(Wire.Unix_sock rsock) ~pwriter:w)

let connect ?(key = auth_key) addr =
  match Client.connect ~attempts:20 ~backoff:0.02 ~seed ~auth_key:key addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let sql c stmt =
  match Client.call c (Wire.Sql stmt) with
  | Ok (Wire.Outcome o) -> o
  | Ok _ -> Alcotest.failf "sql %S: unexpected response" stmt
  | Error e -> Alcotest.failf "sql %S: %s" stmt (Client.error_to_string e)

let root_of c =
  match Client.call c Wire.Repl_root with
  | Ok (Wire.Root { applied; root }) -> (applied, root)
  | Ok _ -> Alcotest.fail "repl_root: unexpected response"
  | Error e -> Alcotest.failf "repl_root: %s" (Client.error_to_string e)

(* wait (bounded) until the replica has applied [n] ops *)
let await_applied c n =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let applied, root = root_of c in
    if applied >= n then (applied, root)
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "replica stuck at %d/%d ops" applied n
    else (
      Thread.delay 0.02;
      go ())
  in
  go ()

let test_replica_catches_up () =
  with_cluster ~replica_log:true @@ fun ~primary ~replica ~pwriter:_ ->
  let pc = connect primary in
  ignore (sql pc "CREATE TABLE users (id INT, name TEXT)");
  ignore (sql pc "CREATE TABLE orders (id INT, item TEXT)");
  for i = 1 to 20 do
    ignore (sql pc (Printf.sprintf "INSERT INTO users VALUES (%d, 'u%d')" i i));
    ignore (sql pc (Printf.sprintf "INSERT INTO orders VALUES (%d, 'o%d')" i i))
  done;
  let pc_applied, proot = root_of pc in
  let rc = connect replica in
  let r_applied, rroot = await_applied rc pc_applied in
  Alcotest.(check int) "replica reaches the primary's op count" pc_applied r_applied;
  Alcotest.(check string) "attested roots agree" (Xbytes.to_hex proot) (Xbytes.to_hex rroot);
  (* the replica answers the same SQL with the same rows *)
  let q = "SELECT name FROM users WHERE id = 7" in
  Alcotest.(check string) "replica serves the primary's data"
    (Fmt.str "%a" Secdb_sql.Engine.pp_result (sql pc q))
    (Fmt.str "%a" Secdb_sql.Engine.pp_result (sql rc q));
  Client.close pc;
  Client.close rc

let test_replica_rejects_writes () =
  with_cluster @@ fun ~primary ~replica ~pwriter:_ ->
  let pc = connect primary in
  ignore (sql pc "CREATE TABLE t (id INT, v TEXT)");
  ignore (sql pc "INSERT INTO t VALUES (1, 'a')");
  let _, _ = root_of pc in
  let rc = connect replica in
  ignore (await_applied rc 2);
  (* every mutating form is refused with a structured error *)
  List.iter
    (fun req ->
      match Client.call rc req with
      | Error (Client.Remote (Wire.App, msg)) when contains ~affix:"read-only" msg -> ()
      | Ok _ -> Alcotest.failf "replica accepted a mutation (%s)" (Wire.op_name req)
      | Error e ->
          Alcotest.failf "unexpected rejection for %s: %s" (Wire.op_name req)
            (Client.error_to_string e))
    [
      Wire.Sql "INSERT INTO t VALUES (2, 'b')";
      Wire.Sql "UPDATE t SET v = 'z' WHERE id = 1";
      Wire.Sql "DELETE FROM t WHERE id = 1";
      Wire.Sql "CREATE TABLE u (id INT)";
      Wire.Sql "CREATE INDEX ON t (v)";
      Wire.Sql "CREATE RANGE INDEX ON t (id) BUCKETS 2";
    ];
  (* reads still work *)
  (match Client.call rc (Wire.Sql "SELECT v FROM t WHERE id = 1") with
  | Ok (Wire.Outcome _) -> ()
  | _ -> Alcotest.fail "replica refused a SELECT");
  (* and a replica is not a primary: pulls are refused *)
  (match Client.call rc (Wire.Repl_pull { ack = 0; max = 10 }) with
  | Error (Client.Remote (Wire.App, msg)) when contains ~affix:"primary" msg -> ()
  | _ -> Alcotest.fail "replica answered a pull");
  Client.close pc;
  Client.close rc

let test_two_replicas_one_primary () =
  with_cluster @@ fun ~primary ~replica ~pwriter:_ ->
  (* the second replica keeps no local log: verify-then-apply only *)
  let applied2 = ref 0 in
  let dbs2 = Array.init shards (fun shard -> mkdb ~shard ()) in
  let stop2 = Atomic.make false in
  let p2 =
    Thread.create
      (fun () ->
        Repl.run_replica
          ~connect:(fun () -> Client.connect ~attempts:1 ~backoff:0.01 ~seed ~auth_key primary)
          ~aead
          ~ack:(fun () -> !applied2)
          ~apply:(fun op ->
            match Repl.apply_routed dbs2 op with
            | Ok () ->
                incr applied2;
                Ok ()
            | Error _ as e -> e)
          ~poll:0.01
          ~stop:(fun () -> Atomic.get stop2)
          ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop2 true;
      try Thread.join p2 with _ -> ())
    (fun () ->
      let pc = connect primary in
      ignore (sql pc "CREATE TABLE t (id INT, v TEXT)");
      for i = 1 to 15 do
        ignore (sql pc (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
      done;
      let n, proot = root_of pc in
      let rc = connect replica in
      let _, rroot = await_applied rc n in
      Alcotest.(check string) "server replica root" (Xbytes.to_hex proot) (Xbytes.to_hex rroot);
      let deadline = Unix.gettimeofday () +. 10. in
      while !applied2 < n && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "logless replica caught up" n !applied2;
      Alcotest.(check string) "logless replica root" (Xbytes.to_hex proot)
        (Xbytes.to_hex (Repl.root_of_dbs dbs2));
      Client.close pc;
      Client.close rc)

(* --- attestation under load -----------------------------------------------

   [Repl_root] is a barrier over every shard's executor, so each
   [(applied, root)] it returns must describe one state: exactly the
   first [applied] ops of the log.  One thread mutates a table on every
   shard while two threads attest in a loop; the run must finish inside
   a fixed deadline, which is what catches a barrier deadlock. *)

let push a x =
  let rec go () =
    let l = Atomic.get a in
    if not (Atomic.compare_and_set a l (x :: l)) then go ()
  in
  go ()

let attest_under_load addr ~mutate =
  let samples = Atomic.make [] and errors = Atomic.make [] in
  let mutating = Atomic.make true and started = Atomic.make 0 and finished = Atomic.make 0 in
  let spawn f =
    Thread.create
      (fun () ->
        (try f () with e -> push errors (Printexc.to_string e));
        Atomic.incr finished)
      ()
  in
  let attester () =
    let first = ref true in
    Fun.protect
      ~finally:(fun () -> if !first then Atomic.incr started)
      (fun () ->
        let c = connect addr in
        let rec go () =
          push samples (root_of c);
          if !first then begin
            first := false;
            Atomic.incr started
          end;
          if Atomic.get mutating then go ()
        in
        go ();
        Client.close c)
  in
  let threads =
    [
      spawn attester;
      spawn attester;
      (* mutations start once both attesters are in their loop, so roots
         are taken before, during and after them *)
      spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set mutating false)
            (fun () ->
              while Atomic.get started < 2 do
                Thread.delay 0.001
              done;
              mutate ()));
    ]
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get finished < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if Atomic.get finished < 3 then
    Alcotest.failf "attestation under load still running after 30 s (barrier deadlock?)";
  List.iter Thread.join threads;
  (match Atomic.get errors with [] -> () | e :: _ -> Alcotest.failf "under load: %s" e);
  Atomic.get samples

(* every sampled root equals the root of [restore ~to_op:applied] over [path] *)
let check_samples ~path ~shards samples =
  let counts = List.sort_uniq compare (List.map fst samples) in
  if List.length counts < 2 then Alcotest.fail "no root was taken while mutations ran";
  List.iter
    (fun n ->
      match Repl.restore ~path ~aead ~shards ~mkdb:(fun shard -> mkdb ~shard ()) ~to_op:n () with
      | Error e -> Alcotest.failf "restore to op %d: %s" n e
      | Ok (dbs, _) ->
          let expect = Xbytes.to_hex (Repl.root_of_dbs dbs) in
          List.iter
            (fun (applied, root) ->
              if applied = n then
                Alcotest.(check string)
                  (Printf.sprintf "root at op %d" n)
                  expect (Xbytes.to_hex root))
            samples)
    counts

let test_root_consistent_under_load ~shards () =
  with_dir @@ fun dir ->
  let config = Server.config ~auth_key ~shards () in
  let serve ~role name =
    match
      Server.create ~seed:7L ~role ~config
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock (Filename.concat dir name))
    with
    | Ok s ->
        Server.start s;
        s
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  (* one table on every shard *)
  let tables =
    List.init shards (fun s ->
        let rec find i =
          let name = Printf.sprintf "t%d" i in
          if Secdb_db.Shard.key_index ~shards name = s then name else find (i + 1)
        in
        find 0)
  in
  let rows = 48 / shards in
  let path = Filename.concat dir "primary.log" in
  (* primary: SQL over the wire, logged with fsync on every append *)
  let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
  let primary = serve ~role:(Server.Primary w) "p.sock" in
  let samples =
    attest_under_load (Server.addr primary) ~mutate:(fun () ->
        let c = connect (Server.addr primary) in
        List.iter (fun t -> ignore (sql c (Printf.sprintf "CREATE TABLE %s (id INT, v TEXT)" t))) tables;
        for i = 1 to rows do
          List.iter
            (fun t ->
              ignore (sql c (Printf.sprintf "INSERT INTO %s VALUES (%d, 'v%d')" t i i));
              if i mod 4 = 0 then
                ignore (sql c (Printf.sprintf "UPDATE %s SET v = 'u' WHERE id = %d" t (i - 1))))
            tables
        done;
        Client.close c)
  in
  Server.stop primary;
  Oplog.close w;
  check_samples ~path ~shards samples;
  (* replica: the same log, fed op by op through its only write path *)
  let ops =
    match Oplog.replay ~path ~aead () with
    | Ok ops -> List.map snd ops
    | Error e -> Alcotest.failf "replay: %s" e
  in
  let replica = serve ~role:(Server.Replica { initial_applied = 0 }) "r.sock" in
  let samples =
    attest_under_load (Server.addr replica) ~mutate:(fun () ->
        List.iter
          (fun op ->
            match Server.apply_op replica op with
            | Ok () -> Thread.yield ()
            | Error e -> failwith ("apply_op: " ^ e))
          ops)
  in
  Server.stop replica;
  check_samples ~path ~shards samples

(* --- crash matrices -------------------------------------------------------

   The fault VFS makes every pwrite of a replicated workload a crash
   point.  Shipping only durable records is what makes the matrices pass:
   whatever the moment of the crash, a replica can hold at most what the
   primary's surviving image still authenticates. *)

(* ship every durable record the replica does not have yet, verbatim *)
let ship_all w r =
  let rec go () =
    match Oplog.read_sealed w ~from:(Oplog.count r) ~max:64 with
    | [] -> ()
    | records -> (
        match Oplog.append_sealed r (List.map snd records) with
        | _, Ok () -> go ()
        | _, Error e -> Alcotest.failf "ship from %d: %s" (fst (List.hd records)) e)
  in
  go ()

let is_string_prefix ~of_:s p =
  String.length p <= String.length s && String.equal (String.sub s 0 (String.length p)) p

(* Primary on a disk that crashes at pwrite [k], continuously shipping to
   a replica on its own healthy disk.  Returns (primary image, replica
   image, crashed).  The replica log is a verbatim copy, so "replica is
   an authenticated prefix of the primary" is literally a byte-prefix
   check on the two durable images. *)
let primary_crash_run ~seed ~k ops =
  let ctl = Fault.make ~seed () in
  Fault.crash_after_writes ctl k;
  let rctl = Fault.make ~seed:(seed + 1) () in
  let r = Oplog.create ~vfs:(Fault.vfs rctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
  (try
     let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
     List.iter
       (fun op ->
         ignore (Oplog.append w op);
         ship_all w r)
       ops;
     Oplog.close w
   with Vfs.Crashed _ | Vfs.Io_error _ -> ());
  (try Oplog.close r with Vfs.Crashed _ | Vfs.Io_error _ -> ());
  let img ctl path = try Fault.dump ctl ~path with Vfs.Io_error _ -> "" in
  (img ctl "mem:p.log", img rctl "mem:r.log", Fault.crashed ctl)

let test_crash_matrix_primary () =
  let ops = sample_ops 8 in
  let k = ref 1 and live = ref true in
  while !live do
    let pimg, rimg, crashed = primary_crash_run ~seed:(1100 + !k) ~k:!k ops in
    if not crashed then live := false
    else begin
      if not (is_string_prefix ~of_:pimg rimg) then
        Alcotest.failf "crash at write %d: replica is not a byte-prefix of the primary" !k;
      (* the surviving primary image must itself recover, and a resumed
         writer must seat exactly the recovered history *)
      with_dir (fun dir ->
          let path = Filename.concat dir "p.log" in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc pimg);
          match Oplog.recover ~path ~aead () with
          | Error e -> Alcotest.failf "crash at write %d: recover: %s" !k e
          | Ok (recovered, _) ->
              let rng = Rng.create ~seed:(Int64.of_int !k) () in
              let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
              Alcotest.(check int)
                (Printf.sprintf "crash at write %d: resume count" !k)
                (List.length recovered) (Oplog.count w);
              Oplog.close w)
    end;
    incr k
  done

let test_crash_matrix_replica () =
  with_dir @@ fun dir ->
  (* healthy primary: its full log is the reference bytes *)
  let ppath = Filename.concat dir "p.log" in
  let w = Oplog.create ~path:ppath ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 6);
  let records = Oplog.read_sealed w ~from:0 ~max:1000 in
  Oplog.close w;
  let pbytes = In_channel.with_open_bin ppath In_channel.input_all in
  let k = ref 1 and live = ref true in
  while !live do
    let ctl = Fault.make ~seed:(2200 + !k) () in
    Fault.crash_after_writes ctl !k;
    let copied = ref 0 in
    (try
       let r = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
       List.iter
         (fun (seq, sealed) ->
           match Oplog.append_sealed r [ sealed ] with
           | _, Ok () -> copied := seq + 1
           | _, Error e -> Alcotest.failf "copy of %d: %s" seq e)
         records;
       Oplog.close r
     with Vfs.Crashed _ | Vfs.Io_error _ -> ());
    if not (Fault.crashed ctl) then live := false
    else begin
      (* the torn replica image recovers to an authenticated prefix; a
         resumed writer catches up from the primary and ends byte-identical *)
      let rpath = Filename.concat dir (Printf.sprintf "r%d.log" !k) in
      Out_channel.with_open_bin rpath (fun oc ->
          Out_channel.output_string oc (try Fault.dump ctl ~path:"mem:r.log" with Vfs.Io_error _ -> ""));
      let rng = Rng.create ~seed:(Int64.of_int (77 + !k)) () in
      let r = Oplog.create ~mode:`Resume ~path:rpath ~aead ~nonce:(Repl.log_nonce ~rng) () in
      (match
         Oplog.append_sealed r
           (List.filter_map
              (fun (seq, sealed) -> if seq >= Oplog.count r then Some sealed else None)
              records)
       with
      | _, Ok () -> ()
      | _, Error e -> Alcotest.failf "crash at write %d: catch-up: %s" !k e);
      Oplog.close r;
      let rbytes = In_channel.with_open_bin rpath In_channel.input_all in
      if not (String.equal pbytes rbytes) then
        Alcotest.failf "crash at write %d: resumed replica diverges from the primary" !k;
      Sys.remove rpath
    end;
    incr k
  done

(* Fail closed: once the primary's oplog hits an I/O error, the mutation
   that hit it and every later one are answered with a structured error,
   so after a crash the log holds exactly the mutations that were acked. *)
let test_oplog_failure_fails_closed () =
  List.iter
    (fun (op, err) ->
      with_dir @@ fun dir ->
      let ctl = Fault.make ~seed:31 () in
      let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
      let sock = Wire.Unix_sock (Filename.concat dir "p.sock") in
      let srv =
        match
          Server.create ~seed:7L ~role:(Server.Primary w) ~config:(Server.config ~auth_key ~shards ())
            ~db:(fun shard -> mkdb ~shard ())
            sock
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "primary: %s" e
      in
      Server.start srv;
      let acked = ref 0 and refused = ref 0 in
      let failed_closed = function
        | Error (Client.Remote (Wire.Server_error, msg)) -> contains ~affix:"oplog failed" msg
        | _ -> false
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = connect sock in
          let mutate stmt =
            match Client.call c (Wire.Sql stmt) with
            | Ok _ -> incr acked
            | r when failed_closed r -> incr refused
            | Error e -> Alcotest.failf "%s: %s" stmt (Client.error_to_string e)
          in
          mutate "CREATE TABLE t (id INT, v TEXT)";
          mutate "CREATE TABLE u (id INT, v TEXT)";
          for i = 1 to 10 do
            if i = 5 then Fault.fail_op ctl ~op ~after:1 ~err;
            mutate (Printf.sprintf "INSERT INTO %s VALUES (%d, 'v')" (if i mod 2 = 0 then "t" else "u") i)
          done;
          Alcotest.(check int) "acks stop at the failure" 6 !acked;
          Alcotest.(check int) "the failed mutation and every later one are refused" 6 !refused;
          (match Client.call c (Wire.Sql "SELECT v FROM t WHERE id = 2") with
          | Ok (Wire.Outcome _) -> ()
          | _ -> Alcotest.fail "a primary with a failed log stopped serving reads");
          Alcotest.(check bool) "attestation reports the failure" true
            (failed_closed (Client.call c Wire.Repl_root));
          Alcotest.(check bool) "pulls report the failure" true
            (failed_closed (Client.call c (Wire.Repl_pull { ack = 0; max = 10 })));
          Client.close c);
      (* power loss: only what was fsynced survives *)
      Fault.crash_now ctl;
      let path = Filename.concat dir "p.log" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Fault.dump ctl ~path:"mem:p.log"));
      match Oplog.recover ~path ~aead () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (records, _) ->
          Alcotest.(check int) "acked mutations = durable records" !acked (List.length records))
    [ (`Fsync, `ENOSPC); (`Fsync, `EIO); (`Pwrite, `ENOSPC); (`Pwrite, `EIO) ]

(* Fail closed under group commit: a client pipelines a burst of INSERTs,
   so the executor commits them in batches (at most the client's window
   each), and a write or an fsync fails under one of those batches.  The
   acks stop at a prefix of the burst — the failed batch gets the error
   for every mutation in it, and every later mutation is refused — and
   after a power loss the log holds exactly the acked mutations. *)
let test_group_commit_fails_closed () =
  List.iter
    (fun (op, err, after) ->
      with_dir @@ fun dir ->
      let ctl = Fault.make ~seed:43 () in
      let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:p.log" ~aead ~nonce:(nonce ()) () in
      let sock = Wire.Unix_sock (Filename.concat dir "p.sock") in
      let srv =
        match
          Server.create ~seed:7L ~role:(Server.Primary w) ~config:(Server.config ~auth_key ~shards ())
            ~db:(fun shard -> mkdb ~shard ())
            sock
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "primary: %s" e
      in
      Server.start srv;
      let failed_closed = function
        | Error (Client.Remote (Wire.Server_error, msg)) -> contains ~affix:"oplog failed" msg
        | _ -> false
      in
      let burst = 200 and window = 32 in
      let acked =
        Fun.protect
          ~finally:(fun () -> Server.stop srv)
          (fun () ->
            let c = connect sock in
            ignore (sql c "CREATE TABLE t (id INT, v TEXT)");
            (* each batch holds at most [window] mutations, so the burst
               takes more than [after] batch writes and fsyncs *)
            Fault.fail_op ctl ~op ~after ~err;
            let replies =
              Client.pipeline ~window c
                (List.init burst (fun i -> Wire.Sql (Printf.sprintf "INSERT INTO t VALUES (%d, 'v')" i)))
            in
            let acks = List.length (List.filter Result.is_ok replies) in
            List.iteri
              (fun i r ->
                if i < acks then (
                  if Result.is_error r then Alcotest.failf "reply %d: an error inside the acked prefix" i)
                else if not (failed_closed r) then
                  Alcotest.failf "reply %d after the failure is not the oplog error" i)
              replies;
            Alcotest.(check bool) "the failure refused part of the burst" true (acks < burst);
            Alcotest.(check bool) "a later mutation is refused" true
              (failed_closed (Client.call c (Wire.Sql "INSERT INTO t VALUES (-1, 'late')")));
            (* the shard's database holds the failed batch, the snapshot
               only what was logged *)
            Alcotest.(check bool) "a read on the executor is refused" true
              (failed_closed (Client.call c (Wire.Sql "EXPLAIN SELECT v FROM t")));
            (match sql c "SELECT count(*) FROM t" with
            | Secdb_sql.Engine.Rows { rows = [ [ Value.Int n ] ]; _ } ->
                Alcotest.(check int) "the snapshot holds the acked rows" acks (Int64.to_int n)
            | _ -> Alcotest.fail "count: unexpected outcome");
            Client.close c;
            1 + acks)
      in
      (* power loss: only what was fsynced survives *)
      Fault.crash_now ctl;
      let path = Filename.concat dir "p.log" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Fault.dump ctl ~path:"mem:p.log"));
      match Oplog.recover ~path ~aead () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (records, _) ->
          Alcotest.(check int) "acked mutations = durable records" acked (List.length records))
    [ (`Fsync, `EIO, 1); (`Fsync, `ENOSPC, 3); (`Pwrite, `EIO, 1); (`Pwrite, `ENOSPC, 3) ]

(* The group-commit windows of the crash matrix.  A batch is sealed into
   one write and covered by one fsync.  Whether a crash tears batch [k]'s
   write, or falls between that write and its fsync (the fsync fails,
   then the power goes), the log recovers to the batches whose append
   returned — plus, for a torn write, at most a strict prefix of batch
   [k]'s records, and for a missed fsync none of them — and a resumed
   writer seats exactly that history. *)
let test_crash_matrix_group_commit () =
  let ops = sample_ops 10 in
  let rec cut sizes ops =
    match (sizes, ops) with
    | _, [] -> []
    | [], ops -> [ ops ]
    | n :: sizes, ops ->
        let batch = List.filteri (fun i _ -> i < n) ops in
        batch :: cut sizes (List.filteri (fun i _ -> i >= n) ops)
  in
  let batches = cut [ 1; 3; 2; 4; 1 ] ops in
  let run ~seed arm =
    let ctl = Fault.make ~seed () in
    let w = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:g.log" ~aead ~nonce:(nonce ()) () in
    arm ctl;
    let acked = ref 0 in
    (try
       List.iter
         (fun batch ->
           ignore (Oplog.append_batch w batch);
           acked := Oplog.durable w)
         batches
     with Vfs.Crashed _ | Vfs.Io_error _ -> ());
    if not (Fault.crashed ctl) then Fault.crash_now ctl;
    ((try Fault.dump ctl ~path:"mem:g.log" with Vfs.Io_error _ -> ""), !acked)
  in
  let recovered ~what img =
    with_dir @@ fun dir ->
    let path = Filename.concat dir "g.log" in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc img);
    match Oplog.recover ~path ~aead () with
    | Error e -> Alcotest.failf "%s: recover: %s" what e
    | Ok (records, _) ->
        List.iteri
          (fun i (seq, op) ->
            if seq <> i || op <> List.nth ops i then
              Alcotest.failf "%s: record %d is not the op appended there" what i)
          records;
        let rng = Rng.create ~seed:5L () in
        let w = Oplog.create ~mode:`Resume ~path ~aead ~nonce:(Repl.log_nonce ~rng) () in
        Alcotest.(check int) (what ^ ": resume count") (List.length records) (Oplog.count w);
        Oplog.close w;
        List.length records
  in
  List.iteri
    (fun i batch ->
      let k = i + 1 in
      let before = List.length (List.concat (List.filteri (fun j _ -> j < i) batches)) in
      let what = Printf.sprintf "batch %d torn" k in
      let img, acked = run ~seed:(3300 + k) (fun ctl -> Fault.crash_after_writes ctl k) in
      Alcotest.(check int) (what ^ ": acked") before acked;
      let n = recovered ~what img in
      if n < acked || n >= acked + List.length batch then
        Alcotest.failf "%s: %d records recovered, want %d..%d" what n acked
          (acked + List.length batch - 1);
      let what = Printf.sprintf "batch %d written, fsync missed" k in
      let img, acked =
        run ~seed:(3400 + k) (fun ctl -> Fault.fail_op ctl ~op:`Fsync ~after:k ~err:`EIO)
      in
      Alcotest.(check int) (what ^ ": acked") before acked;
      Alcotest.(check int) (what ^ ": recovered") acked (recovered ~what img))
    batches

(* --- the replica's own log -------------------------------------------------- *)

(* A primary with [rows] inserts logged, each acked one by one. *)
let with_logged_primary ~rows f =
  with_dir @@ fun dir ->
  let w = Oplog.create ~path:(Filename.concat dir "p.log") ~aead ~nonce:(nonce ()) () in
  let sock = Wire.Unix_sock (Filename.concat dir "p.sock") in
  let srv =
    match
      Server.create ~seed:7L ~role:(Server.Primary w) ~config:(Server.config ~auth_key ~shards ())
        ~db:(fun shard -> mkdb ~shard ())
        sock
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "primary: %s" e
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Oplog.close w)
    (fun () ->
      let c = connect sock in
      ignore (sql c "CREATE TABLE t (id INT, v TEXT)");
      for i = 1 to rows do
        ignore (sql c (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
      done;
      Client.close c;
      f sock (Oplog.count w))

(* One pull is one append call on the replica's log: one write, one
   fsync, however many records it carries. *)
let test_replica_syncs_once_per_pull () =
  with_logged_primary ~rows:20 @@ fun sock total ->
  let ctl = Fault.make ~seed:41 () in
  let r = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
  let dbs = Array.init shards (fun shard -> mkdb ~shard ()) in
  let c = connect sock in
  let rec pull nonempty =
    match
      Repl.pull_once c ~aead ~writer:r ~ack:(Oplog.count r) ~apply:(Repl.apply_routed dbs) ~max:6
        ()
    with
    | Ok { Repl.got = 0; _ } -> nonempty
    | Ok _ -> pull (nonempty + 1)
    | Error (`Conn e | `Fatal e) -> Alcotest.failf "pull: %s" e
  in
  let pulls = pull 0 in
  Client.close c;
  Alcotest.(check int) "the replica holds the whole log" total (Oplog.count r);
  Alcotest.(check int) "one write per non-empty pull" pulls (Fault.write_count ctl);
  Alcotest.(check bool) "fewer writes than records" true (pulls < total);
  Oplog.close r

(* A replica whose own log fails stops with [Error]: it applies nothing
   it could not make durable, and no exception escapes the pull loop. *)
let test_replica_log_failure_stops () =
  with_logged_primary ~rows:5 @@ fun sock _ ->
  List.iter
    (fun (what, op) ->
      let ctl = Fault.make ~seed:43 () in
      Fault.fail_op ctl ~op ~after:1 ~err:`EIO;
      let r = Oplog.create ~vfs:(Fault.vfs ctl) ~path:"mem:r.log" ~aead ~nonce:(nonce ()) () in
      let dbs = Array.init shards (fun shard -> mkdb ~shard ()) in
      let applied = ref 0 in
      let deadline = Unix.gettimeofday () +. 10. in
      (match
         Repl.run_replica
           ~connect:(fun () -> Client.connect ~attempts:1 ~backoff:0.01 ~seed ~auth_key sock)
           ~aead ~writer:r
           ~ack:(fun () -> Oplog.count r)
           ~apply:(fun op ->
             incr applied;
             Repl.apply_routed dbs op)
           ~poll:0.01
           ~stop:(fun () -> Unix.gettimeofday () > deadline)
           ()
       with
      | Error e ->
          Alcotest.(check bool) (what ^ ": error names the local log") true
            (contains ~affix:"local oplog" e)
      | Ok () -> Alcotest.failf "%s failure: replication kept going" what);
      Alcotest.(check int) (what ^ ": nothing applied") 0 !applied;
      try Oplog.close r with Vfs.Io_error _ -> ())
    [ ("pwrite", `Pwrite); ("fsync", `Fsync) ]

(* --- properties ----------------------------------------------------------- *)

let qc = Test_seed.qc

let prop_replica_prefix =
  QCheck2.Test.make ~name:"replica is a byte-prefix of the primary under any fault schedule"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 15) (int_range 1 90) (int_range 0 1000))
    (fun (nops, k, seed) ->
      let pimg, rimg, _ = primary_crash_run ~seed ~k (sample_ops nops) in
      is_string_prefix ~of_:pimg rimg)

let prop_restore_equiv =
  (* the ops a random script encodes, via two tables on different shards *)
  let script_ops script =
    let schema name =
      Schema.v ~table_name:name
        [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]
    in
    Oplog.Create_table (schema "a")
    :: Oplog.Create_table (schema "b")
    :: List.map
         (fun (t, v) ->
           Oplog.Insert
             {
               table = (if t = 0 then "a" else "b");
               values = [ Value.Int (Int64.of_int v); Value.Text (string_of_int v) ];
             })
         script
  in
  QCheck2.Test.make ~name:"restore --to-op N = fresh replay of the first N ops" ~count:25
    QCheck2.Gen.(pair (list_size (int_range 0 20) (pair (int_bound 1) small_int)) (int_bound 100))
    (fun (script, pick) ->
      with_dir @@ fun dir ->
      let path = Filename.concat dir "p.log" in
      let ops = script_ops script in
      let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
      List.iter (fun op -> ignore (Oplog.append w op)) ops;
      Oplog.close w;
      let total = List.length ops in
      let n = pick mod (total + 1) in
      match
        Repl.restore ~path ~aead ~shards ~mkdb:(fun shard -> mkdb ~shard ()) ~to_op:n ()
      with
      | Error e -> QCheck2.Test.fail_reportf "restore: %s" e
      | Ok (restored, applied) ->
          let fresh = Array.init shards (fun shard -> mkdb ~shard ()) in
          List.iteri
            (fun i op ->
              if i < n then
                match Repl.apply_routed fresh op with
                | Ok () -> ()
                | Error e -> QCheck2.Test.fail_reportf "replay op %d: %s" i e)
            ops;
          applied = n
          && String.equal
               (Xbytes.to_hex (Repl.root_of_dbs restored))
               (Xbytes.to_hex (Repl.root_of_dbs fresh)))

let test_restore_beyond_prefix_fails () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "p.log" in
  let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) (sample_ops 3);
  let total = Oplog.count w in
  Oplog.close w;
  match Repl.restore ~path ~aead ~shards ~mkdb:(fun shard -> mkdb ~shard ()) ~to_op:(total + 1) () with
  | Ok _ -> Alcotest.fail "restore past the authenticated prefix succeeded"
  | Error e ->
      Alcotest.(check bool) "error names the prefix length" true
        (contains ~affix:(string_of_int total) e)

(* --- client retry classification ------------------------------------------ *)

(* a listener that accepts and immediately hangs up: every dial is a
   transient I/O failure, so the client must burn its attempts *)
let test_connect_retries_transient_io () =
  (* the handshake write can land on an already-closed socket *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_dir @@ fun dir ->
  let path = Filename.concat dir "slam.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let accepts = ref 0 in
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ fd ] [] [] 0.05 with
          | [ _ ], _, _ ->
              let c, _ = Unix.accept fd in
              incr accepts;
              Unix.close c
          | _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      Unix.close fd)
    (fun () ->
      match Client.connect ~attempts:3 ~backoff:0.01 ~seed ~auth_key (Wire.Unix_sock path) with
      | Ok _ -> Alcotest.fail "connected to a connection-slamming listener"
      | Error _ -> Alcotest.(check bool) "retried on fresh sockets" true (!accepts >= 2))

let test_connect_refusal_is_immediate () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let srv =
    match
      Server.create ~seed:7L ~config:(Server.config ~auth_key ())
        ~db:(fun shard -> mkdb ~shard ())
        (Wire.Unix_sock sock)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" e
  in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match
     Client.connect ~attempts:8 ~backoff:0.3 ~seed
       ~auth_key:(Wire.auth_key_of_master "some other master")
       (Wire.Unix_sock sock)
   with
  | Ok _ -> Alcotest.fail "authenticated with the wrong credential"
  | Error msg ->
      Alcotest.(check bool) "the error names authentication" true
        (contains ~affix:"auth" (String.lowercase_ascii msg)));
  (* 8 attempts at 0.3 s doubling backoff would take half a minute: a
     credential rejection must fail without touching the retry budget *)
  Alcotest.(check bool) "refusal did not retry" true (Unix.gettimeofday () -. t0 < 1.0)

let suites =
  [
    ( "repl:ship",
      [
        Alcotest.test_case "verify and copy" `Quick test_ship_verify_copy;
        Alcotest.test_case "tamper and splice rejected" `Quick test_ship_rejects_tamper_and_splice;
        Alcotest.test_case "only durable records ship" `Quick test_durable_only_ships;
        Alcotest.test_case "resume continues history" `Quick test_resume_continues_history;
      ] );
    ( "repl:live",
      [
        Alcotest.test_case "replica catches up, roots agree" `Quick test_replica_catches_up;
        Alcotest.test_case "replica is read-only" `Quick test_replica_rejects_writes;
        Alcotest.test_case "two replicas, one primary" `Quick test_two_replicas_one_primary;
        Alcotest.test_case "root consistent under load, 1 shard" `Quick
          (test_root_consistent_under_load ~shards:1);
        Alcotest.test_case "root consistent under load, 2 shards" `Quick
          (test_root_consistent_under_load ~shards:2);
        Alcotest.test_case "root consistent under load, 4 shards" `Quick
          (test_root_consistent_under_load ~shards:4);
      ] );
    ( "repl:crash",
      [
        Alcotest.test_case "primary crash matrix" `Quick test_crash_matrix_primary;
        Alcotest.test_case "replica crash matrix" `Quick test_crash_matrix_replica;
        Alcotest.test_case "restore past the prefix fails" `Quick test_restore_beyond_prefix_fails;
        Alcotest.test_case "oplog failure fails closed" `Quick test_oplog_failure_fails_closed;
        Alcotest.test_case "group commit fails closed" `Quick test_group_commit_fails_closed;
        Alcotest.test_case "group commit crash matrix" `Quick test_crash_matrix_group_commit;
        Alcotest.test_case "replica fsyncs once per pull" `Quick test_replica_syncs_once_per_pull;
        Alcotest.test_case "replica log failure stops replication" `Quick
          test_replica_log_failure_stops;
      ] );
    ("repl:props", [ qc prop_replica_prefix; qc prop_restore_equiv ]);
    ( "repl:client",
      [
        Alcotest.test_case "transient I/O retries" `Quick test_connect_retries_transient_io;
        Alcotest.test_case "credential refusal is immediate" `Quick test_connect_refusal_is_immediate;
      ] );
  ]
