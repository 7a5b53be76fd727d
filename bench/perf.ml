(* Throughput suite for the bulk-encryption engine:

     - cipher x mode MB/s on the [Block.into] kernel path, against the same
       T-table AES forced through the generic string fallback (the only path
       the seed had) — the kernel speedup numbers;
     - AEAD MB/s over the fast AES;
     - batch cells/s for the parallel-safe cell schemes at 1/2/4 domains,
       with the parallel == sequential byte-equality verified on every run;
     - whole-table insert and index bulk-load at 1 vs N domains.

   Usage:

     dune exec bench/perf.exe              # full run, writes BENCH_perf.json
     dune exec bench/perf.exe -- --fast    # reduced workloads
     dune exec bench/perf.exe -- --check   # equality checks only, output is
                                           # deterministic (used by cram)

   [--check] prints nothing but the verdict, so the cram test stays stable
   while still driving every bulk path end to end. *)

open Secdb_util
module Block = Secdb_cipher.Block
module Mode = Secdb_modes.Mode
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Address = Secdb_db.Address
module Einst = Secdb_schemes.Einst
module Fixed_cell = Secdb_schemes.Fixed_cell
module Cell_scheme = Secdb_schemes.Cell_scheme
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Vfs = Secdb_storage.Vfs
module Pager = Secdb_storage.Pager
module Blob_store = Secdb_storage.Blob_store
module Pbt = Secdb_storage.Paged_bptree

let key = Xbytes.of_hex "000102030405060708090a0b0c0d0e0f"
let key_mac = Xbytes.of_hex "ffeeddccbbaa99887766554433221100"
let aes_fast = Secdb_cipher.Aes_fast.cipher ~key

(* The same keyed T-table AES with the fast path stripped: every mode then
   runs block-at-a-time through the [string -> string] closures, exactly as
   the pre-kernel code did.  Comparing against this isolates the kernel win
   from the (identical) round function. *)
let aes_string =
  Block.v ~name:"aes-string" ~block_size:16 ~encrypt:aes_fast.Block.encrypt
    ~decrypt:aes_fast.Block.decrypt ()

let aes_ref = Secdb_cipher.Aes.cipher ~key
let des = Secdb_cipher.Des.cipher ~key:(String.sub key 0 8)
let des3 = Secdb_cipher.Des3.cipher ~key:(key ^ String.sub key_mac 0 8)

(* ------------------------------------------------------------ timing -- *)

let now = Unix.gettimeofday

(* Seconds per call: double the repetition count until a batch runs for at
   least [min_time], then keep the fastest of three batches at that count
   (minimum-of-N damps scheduler and GC noise on a shared machine). *)
let time_per_call ~min_time f =
  ignore (f ());
  let batch reps =
    let t0 = now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    now () -. t0
  in
  let rec calibrate reps =
    let dt = batch reps in
    if dt >= min_time then (reps, dt) else calibrate (reps * 2)
  in
  let reps, dt0 = calibrate 1 in
  let best = min (min dt0 (batch reps)) (batch reps) in
  best /. float_of_int reps

(* -------------------------------------------------------- workloads -- *)

let payload n =
  String.init n (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xff))

let nonce16 = String.init 16 (fun i -> Char.chr (0xf0 lxor i))

(* The payload is built once per (cipher, mode) pair, outside the timed
   closure, so the numbers measure the mode and nothing else. *)
let modes (c : Block.t) len =
  let iv = String.sub nonce16 0 c.Block.block_size in
  let data = payload len in
  [
    ("ecb", fun () -> Mode.ecb_encrypt c data);
    ("cbc-enc", fun () -> Mode.cbc_encrypt c ~iv data);
    ("cbc-dec", fun () -> Mode.cbc_decrypt c ~iv data);
    ("ctr", fun () -> Mode.ctr c ~nonce:iv data);
    ("ofb", fun () -> Mode.ofb c ~iv data);
    ("cfb-enc", fun () -> Mode.cfb_encrypt c ~iv data);
  ]

let aeads =
  [
    ("eax", Secdb_aead.Eax.make aes_fast);
    ("ocb+pmac", Secdb_aead.Ocb.make aes_fast);
    ("ccfb", Secdb_aead.Ccfb.make aes_fast);
    ("gcm", Secdb_aead.Gcm.make aes_fast);
    ( "etm(hmac)",
      Secdb_aead.Compose.encrypt_then_mac ~cipher:aes_fast ~mac_key:key_mac () );
    ( "siv",
      Secdb_aead.Siv.make (Secdb_cipher.Aes_fast.cipher ~key:key_mac) aes_fast );
  ]

let mu = Address.mu_sha1 ~width:16

let cell_schemes () =
  let e_fast = Einst.cbc_zero_iv aes_fast in
  [
    ("append-cbc0", Secdb_schemes.Cell_append.make ~e:e_fast ~mu);
    ( "xor-cbc0",
      Secdb_schemes.Cell_xor.make ~e:e_fast ~mu ~validate:(fun _ -> true) () );
    ( "fixed-eax-derived",
      Fixed_cell.make_derived ~aead:(Secdb_aead.Eax.make aes_fast)
        ~nonce_key:key_mac () );
  ]

(* The seed's AES-CTR path, reproduced exactly in shape for the
   before/after comparison the kernel numbers are measured against:
   an array-scratch block function (two scratch arrays, a blit per round,
   a string per block) driven by the old keystream loop (a counter copy
   and a truncated keystream string per block). *)
module Seed_path = struct
  let te0, te1, te2, te3 =
    let xtime x =
      let x2 = x lsl 1 in
      if x land 0x80 <> 0 then (x2 lxor 0x1b) land 0xff else x2
    in
    let gmul a b =
      let rec loop a b acc =
        if b = 0 then acc
        else loop (xtime a) (b lsr 1) (if b land 1 <> 0 then acc lxor a else acc)
      in
      loop a b 0
    in
    let rotr32 w n = ((w lsr n) lor (w lsl (32 - n))) land 0xffffffff in
    let t0 = Array.make 256 0 in
    for x = 0 to 255 do
      let s = Secdb_cipher.Aes.sbox.(x) in
      t0.(x) <- (gmul s 2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor gmul s 3
    done;
    ( t0,
      Array.map (fun w -> rotr32 w 8) t0,
      Array.map (fun w -> rotr32 w 16) t0,
      Array.map (fun w -> rotr32 w 24) t0 )

  let rounds = 10

  let ek =
    let bytes = Secdb_cipher.Aes.round_key_bytes (Secdb_cipher.Aes.expand_key key) in
    Array.init
      (Array.length bytes / 4)
      (fun i ->
        (bytes.(4 * i) lsl 24)
        lor (bytes.((4 * i) + 1) lsl 16)
        lor (bytes.((4 * i) + 2) lsl 8)
        lor bytes.((4 * i) + 3))

  let b0 w = (w lsr 24) land 0xff
  let b1 w = (w lsr 16) land 0xff
  let b2 w = (w lsr 8) land 0xff
  let b3 w = w land 0xff

  let encrypt_block block =
    let w = Array.init 4 (fun c -> Xbytes.get_uint32_be block (4 * c)) in
    for c = 0 to 3 do
      w.(c) <- w.(c) lxor ek.(c)
    done;
    let t = Array.make 4 0 in
    for round = 1 to rounds - 1 do
      let rk = 4 * round in
      for c = 0 to 3 do
        t.(c) <-
          te0.(b0 w.(c))
          lxor te1.(b1 w.((c + 1) land 3))
          lxor te2.(b2 w.((c + 2) land 3))
          lxor te3.(b3 w.((c + 3) land 3))
          lxor ek.(rk + c)
      done;
      Array.blit t 0 w 0 4
    done;
    let rk = 4 * rounds in
    let s = Secdb_cipher.Aes.sbox in
    for c = 0 to 3 do
      t.(c) <-
        (s.(b0 w.(c)) lsl 24)
        lor (s.(b1 w.((c + 1) land 3)) lsl 16)
        lor (s.(b2 w.((c + 2) land 3)) lsl 8)
        lor s.(b3 w.((c + 3) land 3))
        lxor ek.(rk + c)
    done;
    let b = Bytes.create 16 in
    Array.iteri (fun c v -> Xbytes.set_uint32_be b (4 * c) v) t;
    Bytes.unsafe_to_string b

  let ctr ~nonce s =
    let blk = Bytes.of_string nonce in
    let counter = ref 0 in
    let next () =
      Xbytes.set_uint32_be blk 12 !counter;
      incr counter;
      encrypt_block (Bytes.to_string blk)
    in
    let out = Bytes.of_string s in
    let off = ref 0 in
    while !off < String.length s do
      let ks = next () in
      let n = min 16 (String.length s - !off) in
      Xbytes.xor_into ~src:(Xbytes.take n ks) ~dst:out ~dst_off:!off;
      off := !off + n
    done;
    Bytes.unsafe_to_string out
end

let cell_jobs n =
  Array.init n (fun i ->
      ( Address.v ~table:1 ~row:i ~col:0,
        Printf.sprintf "row-%06d:%s" i (payload 48) ))

(* ------------------------------------------------------------ checks -- *)

let check_failures = ref []
let fail_check fmt = Printf.ksprintf (fun s -> check_failures := s :: !check_failures) fmt

let check_kernel_vs_string () =
  (* the kernel path and the string fallback must agree byte for byte on
     every mode, for both directions *)
  let data = payload 1024 in
  List.iter2
    (fun (name, f) (_, g) ->
      if f () <> g () then fail_check "kernel/string mismatch: %s" name)
    (modes aes_fast 1024) (modes aes_string 1024);
  let ct = Mode.cbc_encrypt aes_fast ~iv:nonce16 data in
  if Mode.cbc_decrypt aes_string ~iv:nonce16 ct <> data then
    fail_check "cbc roundtrip across paths";
  (* the reference AES and the reproduced seed path agree with the kernel *)
  let kernel_ctr = Mode.ctr aes_fast ~nonce:nonce16 data in
  if Mode.ctr aes_ref ~nonce:nonce16 data <> kernel_ctr then
    fail_check "aes-ref vs aes-fast ctr";
  if Seed_path.ctr ~nonce:nonce16 data <> kernel_ctr then
    fail_check "seed-path ctr vs aes-fast ctr"

let check_parallel_cells pool =
  let jobs = cell_jobs 257 in
  List.iter
    (fun (name, scheme) ->
      let seq = Cell_scheme.encrypt_cells scheme jobs in
      let par = Cell_scheme.encrypt_cells ~pool scheme jobs in
      if seq <> par then fail_check "parallel != sequential: %s" name;
      let dec = Cell_scheme.decrypt_cells ~pool scheme (Array.map2 (fun (a, _) ct -> (a, ct)) jobs par) in
      Array.iteri
        (fun i r ->
          if r <> Ok (snd jobs.(i)) then fail_check "batch decrypt: %s cell %d" name i)
        dec)
    (cell_schemes ())

let check_parallel_table pool =
  let schema =
    Schema.v ~table_name:"perf"
      [
        Schema.column ~protection:Schema.Clear "id" Value.Kint;
        Schema.column "a" Value.Ktext;
        Schema.column "b" Value.Ktext;
      ]
  in
  let scheme _ =
    Fixed_cell.make_derived ~aead:(Secdb_aead.Eax.make aes_fast) ~nonce_key:key_mac ()
  in
  let rows =
    List.init 101 (fun i ->
        [ Value.Int (Int64.of_int i);
          Value.Text (Printf.sprintf "a%04d" i);
          Value.Text (payload (16 + (i mod 40))) ])
  in
  let seq = Etable.create ~id:3 schema ~scheme in
  List.iter (fun r -> ignore (Etable.insert seq r)) rows;
  let par = Etable.create ~id:3 schema ~scheme in
  Etable.insert_many ~pool par rows;
  for row = 0 to List.length rows - 1 do
    for col = 1 to 2 do
      if Etable.raw_ciphertext seq ~row ~col <> Etable.raw_ciphertext par ~row ~col then
        fail_check "insert_many != insert loop at (%d,%d)" row col
    done
  done;
  match Etable.decrypt_column ~pool par ~col:2 with
  | cols ->
      Array.iteri
        (fun row c ->
          if c <> Some (Ok (List.nth (List.nth rows row) 2)) then
            fail_check "decrypt_column row %d" row)
        cols

let check_parallel_bulk_load pool =
  let entries =
    List.init 300 (fun i -> (Value.Text (Printf.sprintf "k%06d" (i / 2)), i))
  in
  let codec = Secdb_schemes.Index3.codec ~e:(Einst.cbc_zero_iv aes_fast) in
  let seq = B.bulk_load ~id:9 ~codec entries in
  let par = B.bulk_load ~pool ~id:9 ~codec entries in
  if B.snapshot seq <> B.snapshot par then fail_check "bulk_load parallel != sequential";
  (match B.validate par with
  | Ok () -> ()
  | Error e -> fail_check "bulk_load validate: %s" e);
  if B.find par (Value.Text "k000007") <> [ 14; 15 ] then fail_check "bulk_load find"

(* GCM reference construction, assembled from the bit-by-bit GHASH oracle
   and block-at-a-time CTR on the string closure: j0 = nonce || 00000001,
   keystream counts from 2, tag = E(j0) xor GHASH(pad(A) || pad(C) || lens).
   The table-driven AEAD must reproduce this byte for byte. *)
let gcm_reference ~nonce ~ad msg =
  let enc = aes_fast.Block.encrypt in
  let h = enc (String.make 16 '\000') in
  let cblock i =
    let b = Bytes.create 16 in
    Bytes.blit_string nonce 0 b 0 12;
    Xbytes.set_uint32_be b 12 i;
    enc (Bytes.unsafe_to_string b)
  in
  let n = String.length msg in
  let ct = Bytes.of_string msg in
  let i = ref 2 and off = ref 0 in
  while !off < n do
    let l = min 16 (n - !off) in
    Xbytes.xor_into ~src:(Xbytes.take l (cblock !i)) ~dst:ct ~dst_off:!off;
    incr i;
    off := !off + l
  done;
  let ct = Bytes.unsafe_to_string ct in
  let pad16 s =
    let r = String.length s mod 16 in
    if r = 0 then s else s ^ String.make (16 - r) '\000'
  in
  let len64 s = Xbytes.int64_to_be_string (Int64.of_int (8 * String.length s)) in
  let s =
    Secdb_aead.Gcm.ghash_ref ~h (pad16 ad ^ pad16 ct ^ len64 ad ^ len64 ct)
  in
  (ct, Xbytes.xor_exact (cblock 1) s)

let check_gcm_vs_reference () =
  (* the Shoup-table GHASH against the bit-by-bit oracle, on lengths that
     exercise the word loop and the single-block path *)
  let h = String.sub (payload 48) 16 16 in
  List.iter
    (fun n ->
      let data = payload n in
      if Secdb_aead.Gcm.ghash ~h data <> Secdb_aead.Gcm.ghash_ref ~h data then
        fail_check "ghash table vs bit-by-bit reference at %d bytes" n)
    [ 0; 16; 160; 1024 ];
  (* the production GCM against the independent reference construction,
     including the partial-block tail and empty edge cases *)
  let gcm = List.assoc "gcm" aeads in
  let nonce = String.make 12 'G' in
  List.iter
    (fun n ->
      let msg = payload n in
      let ad = payload (n mod 37) in
      let ct, tag = Secdb_aead.Aead.encrypt gcm ~nonce ~ad msg in
      let ct', tag' = gcm_reference ~nonce ~ad msg in
      if ct <> ct' || tag <> tag' then
        fail_check "gcm vs reference construction at %d bytes" n;
      (match Secdb_aead.Aead.decrypt gcm ~nonce ~ad ~tag ct with
      | Ok m when m = msg -> ()
      | Ok _ | Error _ -> fail_check "gcm decrypt roundtrip at %d bytes" n);
      if n > 0 then
        match
          Secdb_aead.Aead.decrypt gcm ~nonce ~ad ~tag (Xbytes.flip_bit ct 3)
        with
        | Error Secdb_aead.Aead.Invalid -> ()
        | Ok _ -> fail_check "gcm accepted tampered ciphertext at %d bytes" n)
    [ 0; 1; 16; 33; 1024 ]

let check_fault_vfs () =
  (* the fault backend with every degradation on — short reads and torn
     writes at every call — must be functionally invisible, because the
     storage layer loops through the robust helpers; the durable images
     must come out byte-identical *)
  let image degraded =
    let ctl = Vfs.Fault.make ~seed:11 () in
    if degraded then begin
      Vfs.Fault.set_short_reads ctl true;
      Vfs.Fault.set_torn_writes ctl true
    end;
    let vfs = Vfs.Fault.vfs ctl in
    let p = Pager.create ~path:"mem:perf.pg" ~page_size:128 ~cache_pages:4 ~vfs () in
    let store = Blob_store.attach p in
    let id = Blob_store.store store (String.make 1500 'p') in
    (match Blob_store.load store id with
    | Ok s when s = String.make 1500 'p' -> ()
    | Ok _ | Error _ -> fail_check "fault vfs: blob roundtrip");
    Pager.close p;
    Vfs.Fault.dump ctl ~path:"mem:perf.pg"
  in
  if image false <> image true then fail_check "fault vfs: degraded image differs"

(* --- networked path: in-process server + client over a Unix socket ------ *)

let net_master = "perf wire master key"

let net_db ?(shard = 0) () =
  Secdb.Encdb.create
    ~seed:(Int64.add 5L (Int64.of_int shard))
    ~master:net_master
    ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax)
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let with_net_server ?shards f =
  let dir = Filename.temp_file "secdb_perf_net" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let auth_key = Secdb_net.Wire.auth_key_of_master net_master in
  let srv =
    match
      Secdb_net.Server.create ~seed:9L
        ~config:(Secdb_net.Server.config ~auth_key ?shards ())
        ~db:(fun shard -> net_db ~shard ())
        (Secdb_net.Wire.Unix_sock path)
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  Secdb_net.Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Secdb_net.Server.stop srv;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (Secdb_net.Wire.Unix_sock path) auth_key)

let net_connect ?(seed = 3L) addr auth_key =
  match Secdb_net.Client.connect ~attempts:20 ~backoff:0.02 ~seed ~auth_key addr with
  | Ok c -> c
  | Error e -> failwith e

let with_net_client f =
  with_net_server (fun addr auth_key ->
      let c = net_connect addr auth_key in
      Fun.protect ~finally:(fun () -> Secdb_net.Client.close c) (fun () -> f c))

let check_net () =
  (* a pipelined burst over the socket must return, byte for byte, what the
     server's own dispatcher produces in process on an identical database *)
  let reqs =
    [
      Secdb_net.Wire.Sql "CREATE TABLE n (id INT CLEAR, v TEXT)";
      Secdb_net.Wire.Sql "INSERT INTO n VALUES (0, 'zero')";
      Secdb_net.Wire.Sql "INSERT INTO n VALUES (1, 'one')";
      Secdb_net.Wire.Sql "SELECT v FROM n WHERE id = 1";
      Secdb_net.Wire.Sql "SELECT count(*) FROM n";
      Secdb_net.Wire.Sql "SELECT no_such_fn(1) FROM n";
    ]
  in
  with_net_client (fun c ->
      let over_wire = Secdb_net.Client.pipeline c reqs in
      let ref_db = net_db () in
      List.iter2
        (fun got req ->
          match (got, Secdb_net.Server.dispatch ref_db req) with
          | Ok a, Ok b when Secdb_net.Wire.encode_resp a = Secdb_net.Wire.encode_resp b -> ()
          | Error (Secdb_net.Client.Remote (ca, ma)), Error (cb, mb) when ca = cb && ma = mb -> ()
          | _ -> fail_check "net: wire result differs from in-process dispatch")
        over_wire reqs)

(* --- paged vs in-memory B+-tree ----------------------------------------- *)

let check_paged () =
  (* a paged tree over a tiny pager cache and an in-memory tree fed the
     same workload must answer identically — the dataset spans well over
     10x the page cache, so most lookups unseal nodes from "disk" *)
  let ctl = Vfs.Fault.make ~seed:21 () in
  let pager =
    Pager.create ~path:"mem:perf_pbt.pg" ~page_size:512 ~cache_pages:8
      ~vfs:(Vfs.Fault.vfs ctl) ()
  in
  let aead = Secdb_aead.Eax.make aes_fast in
  let nonce = Secdb_aead.Nonce.counter ~size:aead.Secdb_aead.Aead.nonce_size () in
  let seal = Pbt.aead_seal ~aead ~nonce ~tree_id:77 in
  let paged = Pbt.create ~pager ~seal ~order:4 ~cache_nodes:8 ~id:77 () in
  let mem = B.create ~id:77 ~codec:B.plain_codec () in
  for i = 0 to 799 do
    let v = Value.Int (Int64.of_int (i * 7 mod 191)) in
    Pbt.insert paged v ~table_row:i;
    B.insert mem v ~table_row:i;
    if i mod 5 = 0 then begin
      let d = Value.Int (Int64.of_int (i * 3 mod 191)) in
      if B.delete mem d ~table_row:(i / 2) <> Pbt.delete paged d ~table_row:(i / 2) then
        fail_check "paged bptree: delete verdict differs"
    end
  done;
  if Pager.page_count pager < 80 then fail_check "paged bptree: dataset does not exceed cache";
  for k = 0 to 190 do
    let v = Value.Int (Int64.of_int k) in
    if B.find mem v <> Pbt.find paged v then fail_check "paged bptree: find differs"
  done;
  if B.range mem () <> Pbt.range paged () then fail_check "paged bptree: full range differs";
  if B.size mem <> Pbt.size paged then fail_check "paged bptree: size differs";
  Pbt.flush paged;
  Pager.close pager

(* --- adaptive planner byte-identity -------------------------------------- *)

module SE = Secdb_sql.Engine
module SA = Secdb_sql.Ast
module SPl = Secdb_sql.Plan
module SP = Secdb_sql.Parser
module SSnap = Secdb_sql.Snapshot

(* two tables with an exact index, a range index and a joinable key, so
   every access path and both join strategies are live candidates *)
let planner_db ~rows () =
  let db =
    Secdb.Encdb.create ~master:"perf planner" ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax) ()
  in
  let run sql =
    match SE.exec db sql with Ok _ -> () | Error e -> failwith ("planner db: " ^ sql ^ ": " ^ e)
  in
  run "CREATE TABLE orders (id INT CLEAR, cust INT, total INT)";
  run "CREATE TABLE custs (id INT CLEAR, cust INT, region INT)";
  for i = 0 to rows - 1 do
    run (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d)" i (i mod 40) (i * 7 mod 1000))
  done;
  for i = 0 to (rows / 4) - 1 do
    run (Printf.sprintf "INSERT INTO custs VALUES (%d, %d, %d)" i (i mod 40) (i mod 5))
  done;
  run "CREATE INDEX ON orders (total)";
  run "CREATE RANGE INDEX ON orders (total) BUCKETS 8";
  run "CREATE INDEX ON custs (cust)";
  db

let planner_queries =
  [
    ("point", "SELECT * FROM orders WHERE total = 630");
    ("range", "SELECT id, total FROM orders WHERE total BETWEEN 100 AND 220 ORDER BY total DESC");
    ("order-limit", "SELECT * FROM orders ORDER BY total DESC LIMIT 5");
    ( "join",
      "SELECT * FROM orders JOIN custs ON orders.cust = custs.cust WHERE total BETWEEN 0 AND \
       400 ORDER BY region LIMIT 20" );
  ]

let planner_select sql =
  match SP.parse sql with Ok (SA.Select s) -> s | _ -> failwith ("planner parse: " ^ sql)

let check_planner () =
  (* whatever the cost model picks, every candidate plan — and the
     lock-free snapshot path, which must answer every SELECT — must return
     the same bytes; a planner bug may cost latency, never answers *)
  let db = planner_db ~rows:160 () in
  let snap = SSnap.of_db db in
  List.iter
    (fun (label, sql) ->
      let s = planner_select sql in
      match SE.exec_stmt db (SA.Select s) with
      | Error e -> fail_check "planner %s: %s" label e
      | Ok adaptive ->
          List.iter
            (fun p ->
              match SE.exec_plan db s p with
              | Ok r ->
                  if r <> adaptive then
                    fail_check "planner %s: plan %s returns different bytes" label (SPl.name p)
              | Error e -> fail_check "planner %s: plan %s: %s" label (SPl.name p) e)
            (SE.candidate_plans db s);
          (match SE.exec_snapshot snap (SA.Select s) with
          | Some (Ok r) -> if r <> adaptive then fail_check "planner %s: snapshot differs" label
          | Some (Error e) -> fail_check "planner %s: snapshot: %s" label e
          | None -> fail_check "planner %s: snapshot declined" label))
    planner_queries

(* The checks run with observability on, so the counter snapshot embedded
   in BENCH_perf.json reflects exactly the work the equivalence checks did;
   the timed sections below run with it off (the default), keeping the
   numbers comparable with PR 1. *)
let check_snapshot = ref None

let run_checks () =
  Secdb_obs.Obs.with_enabled (fun () ->
      let pool = Pool.create ~domains:4 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          check_kernel_vs_string ();
          check_gcm_vs_reference ();
          check_parallel_cells pool;
          check_parallel_table pool;
          check_parallel_bulk_load pool;
          check_fault_vfs ();
          check_paged ();
          check_planner ();
          check_net ()));
  check_snapshot := Some (Secdb_obs.Metrics.snapshot ());
  match !check_failures with
  | [] ->
      print_endline "perf check: OK";
      true
  | fs ->
      List.iter (fun f -> Printf.printf "perf check FAILED: %s\n" f) (List.rev fs);
      false

(* ------------------------------------------------------- measurement -- *)

type sample = { section : string; name : string; qualifier : string; value : float; unit_ : string }

let samples : sample list ref = ref []
let sample ~section ~name ~qualifier ~unit_ value =
  samples := { section; name; qualifier; value; unit_ } :: !samples

let header fmt = Printf.printf ("\n" ^^ fmt ^^ "\n%!")
let row fmt = Printf.printf (fmt ^^ "\n%!")

let bench_modes ~fast =
  let len = if fast then 16_384 else 262_144 in
  let min_time = if fast then 0.02 else 0.2 in
  header "Cipher x mode throughput, %d KiB buffers (MB/s)" (len / 1024);
  let mode_names = List.map fst (modes aes_fast len) in
  row "  %-12s %s" "cipher"
    (String.concat "" (List.map (Printf.sprintf "%9s") mode_names));
  let per_cipher =
    List.map
      (fun (cname, c) ->
        let rates =
          List.map
            (fun (mname, f) ->
              let s = time_per_call ~min_time f in
              let mbs = float_of_int len /. s /. 1e6 in
              sample ~section:"modes" ~name:cname ~qualifier:mname ~unit_:"MB/s" mbs;
              mbs)
            (modes c len)
        in
        row "  %-12s %s" cname
          (String.concat "" (List.map (Printf.sprintf "%9.1f") rates));
        (cname, rates))
      [
        ("aes-fast", aes_fast);
        ("aes-string", aes_string);
        ("aes-ref", aes_ref);
        ("des", des);
        ("des3", des3);
      ]
  in
  let rate cipher mode =
    let rates = List.assoc cipher per_cipher in
    List.nth rates (Option.get (List.find_index (( = ) mode) mode_names))
  in
  (* the acceptance number: the kernel CTR against the seed's own path
     (array-scratch block function + per-block-string keystream loop) *)
  let seed_rate =
    let data = payload len in
    let s = time_per_call ~min_time (fun () -> Seed_path.ctr ~nonce:nonce16 data) in
    float_of_int len /. s /. 1e6
  in
  sample ~section:"modes" ~name:"aes-seed-path" ~qualifier:"ctr" ~unit_:"MB/s" seed_rate;
  row "  %-12s %9s %9s %9s %9.1f %9s %9s" "aes-seed-path" "-" "-" "-" seed_rate "-" "-";
  let ctr_speedup = rate "aes-fast" "ctr" /. seed_rate in
  let fallback_speedup = rate "aes-fast" "ctr" /. rate "aes-string" "ctr" in
  let cbc_speedup = rate "aes-fast" "cbc-enc" /. rate "aes-string" "cbc-enc" in
  sample ~section:"kernel" ~name:"ctr-speedup" ~qualifier:"aes-fast/seed-path" ~unit_:"x"
    ctr_speedup;
  sample ~section:"kernel" ~name:"ctr-speedup-fallback" ~qualifier:"aes-fast/aes-string"
    ~unit_:"x" fallback_speedup;
  sample ~section:"kernel" ~name:"cbc-enc-speedup" ~qualifier:"aes-fast/aes-string" ~unit_:"x"
    cbc_speedup;
  row "  kernel ctr vs seed path %.2fx, vs generic fallback %.2fx; cbc-enc vs fallback %.2fx"
    ctr_speedup fallback_speedup cbc_speedup

let bench_aead ~fast =
  let len = if fast then 1024 else 4096 in
  let min_time = if fast then 0.02 else 0.2 in
  header "AEAD throughput over aes-fast, %d-byte messages (MB/s)" len;
  row "  %-12s %9s %9s" "scheme" "encrypt" "decrypt";
  let ad = Address.encode (Address.v ~table:1 ~row:42 ~col:3) in
  let msg = payload len in
  List.iter
    (fun (name, (a : Secdb_aead.Aead.t)) ->
      let nonce = String.make a.Secdb_aead.Aead.nonce_size 'N' in
      let s = time_per_call ~min_time (fun () -> Secdb_aead.Aead.encrypt a ~nonce ~ad msg) in
      let enc_mbs = float_of_int len /. s /. 1e6 in
      sample ~section:"aead" ~name ~qualifier:(string_of_int len) ~unit_:"MB/s" enc_mbs;
      let ct, tag = Secdb_aead.Aead.encrypt a ~nonce ~ad msg in
      let s =
        time_per_call ~min_time (fun () ->
            Secdb_aead.Aead.decrypt a ~nonce ~ad ~tag ct)
      in
      let dec_mbs = float_of_int len /. s /. 1e6 in
      sample ~section:"aead" ~name
        ~qualifier:(Printf.sprintf "%d-decrypt" len)
        ~unit_:"MB/s" dec_mbs;
      row "  %-12s %9.1f %9.1f" name enc_mbs dec_mbs)
    aeads;
  (* the GHASH primitive on its own, over big buffers: the ceiling the
     table-driven GCM authenticates at, independent of AES *)
  let glen = if fast then 16_384 else 262_144 in
  let h = aes_fast.Block.encrypt (String.make 16 '\000') in
  let t = Secdb_aead.Gcm.htable h in
  let data = Bytes.of_string (payload glen) in
  let acc = Bytes.create 16 in
  let s =
    time_per_call ~min_time (fun () ->
        Bytes.fill acc 0 16 '\000';
        Secdb_aead.Gcm.ghash_into t ~acc data ~off:0 ~nblocks:(glen / 16))
  in
  let mbs = float_of_int glen /. s /. 1e6 in
  sample ~section:"aead" ~name:"ghash" ~qualifier:(string_of_int glen) ~unit_:"MB/s" mbs;
  row "  %-12s %9.1f           (keyed table, %d KiB buffers)" "ghash" mbs
    (glen / 1024)

let bench_cells ~fast =
  let n = if fast then 512 else 4096 in
  let min_time = if fast then 0.02 else 0.2 in
  let jobs = cell_jobs n in
  header "Batch cell encryption, %d cells of ~60 bytes (cells/s)" n;
  row "  %-20s %12s %12s %12s %10s" "scheme" "1 domain" "2 domains" "4 domains"
    "speedup";
  List.iter
    (fun (name, scheme) ->
      let rates =
        List.map
          (fun domains ->
            let pool = Pool.create ~domains () in
            Fun.protect
              ~finally:(fun () -> Pool.shutdown pool)
              (fun () ->
                let s =
                  time_per_call ~min_time (fun () ->
                      Cell_scheme.encrypt_cells ~pool scheme jobs)
                in
                let cps = float_of_int n /. s in
                sample ~section:"cells" ~name
                  ~qualifier:(Printf.sprintf "%dd" domains)
                  ~unit_:"cells/s" cps;
                cps))
          [ 1; 2; 4 ]
      in
      let speedup = List.nth rates 2 /. List.hd rates in
      sample ~section:"cells" ~name ~qualifier:"speedup-4d" ~unit_:"x" speedup;
      row "  %-20s %12.0f %12.0f %12.0f %9.2fx" name (List.hd rates)
        (List.nth rates 1) (List.nth rates 2) speedup)
    (cell_schemes ())

let bench_bulk_load ~fast =
  let n = if fast then 1_000 else 10_000 in
  let min_time = if fast then 0.02 else 0.2 in
  let entries = List.init n (fun i -> (Value.Text (Printf.sprintf "key-%08d" i), i)) in
  let codec = Secdb_schemes.Index3.codec ~e:(Einst.cbc_zero_iv aes_fast) in
  header "Index bulk load, %d entries under index3[cbc0(aes-fast)] (entries/s)" n;
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let s =
            time_per_call ~min_time (fun () -> B.bulk_load ~pool ~id:9 ~codec entries)
          in
          let eps = float_of_int n /. s in
          sample ~section:"bulk_load" ~name:"index3"
            ~qualifier:(Printf.sprintf "%dd" domains)
            ~unit_:"entries/s" eps;
          row "  %d domain(s): %12.0f" domains eps))
    [ 1; 4 ]

(* The disabled observability path must be free: the same CTR workload
   with the switch off (the default above) and on should time the same,
   and the off number is the one every other section was measured under. *)
let bench_obs_overhead ~fast =
  let len = if fast then 16_384 else 262_144 in
  let min_time = if fast then 0.02 else 0.2 in
  let data = payload len in
  let run () = Mode.ctr aes_fast ~nonce:nonce16 data in
  header "Observability overhead on kernel CTR, %d KiB buffers (MB/s)" (len / 1024);
  let rate_off = float_of_int len /. time_per_call ~min_time run /. 1e6 in
  let rate_on =
    Secdb_obs.Obs.with_enabled (fun () ->
        float_of_int len /. time_per_call ~min_time run /. 1e6)
  in
  sample ~section:"obs" ~name:"ctr-obs-off" ~qualifier:"disabled" ~unit_:"MB/s" rate_off;
  sample ~section:"obs" ~name:"ctr-obs-on" ~qualifier:"enabled" ~unit_:"MB/s" rate_on;
  sample ~section:"obs" ~name:"ctr-obs-ratio" ~qualifier:"off/on" ~unit_:"x"
    (rate_off /. rate_on);
  row "  obs off %9.1f   obs on %9.1f   off/on %.3fx" rate_off rate_on (rate_off /. rate_on)

let bench_vfs_overhead ~fast =
  (* the storage engine now routes every byte through Vfs; this measures
     what the indirection costs against the same syscall pattern on a bare
     file descriptor (the pre-VFS code path) *)
  let pages = if fast then 64 else 512 in
  let psize = 4096 in
  let min_time = if fast then 0.02 else 0.2 in
  let bytes = 2 * pages * psize in
  header "VFS passthrough overhead, %d x %d B pwrite+pread (MB/s)" pages psize;
  let data = String.make psize 'v' in
  let buf = Bytes.create psize in
  let with_tmp f =
    let path = Filename.temp_file "secdb_vfs" ".bin" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  let raw () =
    with_tmp (fun path ->
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            for i = 0 to pages - 1 do
              ignore (Unix.lseek fd (i * psize) Unix.SEEK_SET);
              ignore (Unix.write_substring fd data 0 psize)
            done;
            for i = 0 to pages - 1 do
              ignore (Unix.lseek fd (i * psize) Unix.SEEK_SET);
              ignore (Unix.read fd buf 0 psize)
            done))
  in
  let through_vfs () =
    with_tmp (fun path ->
        let f = Vfs.unix.Vfs.open_file ~path ~mode:`Trunc in
        Fun.protect
          ~finally:(fun () -> f.Vfs.close ())
          (fun () ->
            for i = 0 to pages - 1 do
              Vfs.really_pwrite f ~pos:(i * psize) data
            done;
            for i = 0 to pages - 1 do
              ignore (Vfs.really_pread f ~pos:(i * psize) buf ~off:0 ~len:psize)
            done))
  in
  let rate_raw = float_of_int bytes /. time_per_call ~min_time raw /. 1e6 in
  let rate_vfs = float_of_int bytes /. time_per_call ~min_time through_vfs /. 1e6 in
  sample ~section:"vfs" ~name:"raw-fd" ~qualifier:"baseline" ~unit_:"MB/s" rate_raw;
  sample ~section:"vfs" ~name:"vfs-unix" ~qualifier:"passthrough" ~unit_:"MB/s" rate_vfs;
  sample ~section:"vfs" ~name:"vfs-ratio" ~qualifier:"raw/vfs" ~unit_:"x" (rate_raw /. rate_vfs);
  row "  raw fd %9.1f   vfs %9.1f   raw/vfs %.3fx" rate_raw rate_vfs (rate_raw /. rate_vfs)

let bench_net ~fast =
  (* the pipelining win: the same number of round-trips, issued one at a
     time (each call waits for its response) versus posted as one burst
     and collected afterwards — the batch pays the socket latency once *)
  let batch = 32 in
  let min_time = if fast then 0.05 else 0.5 in
  header "Wire RPC over a Unix socket, batches of %d pings (calls/s)" batch;
  with_net_client (fun c ->
      let ok = function
        | Ok _ -> ()
        | Error e -> failwith (Secdb_net.Client.error_to_string e)
      in
      let serial () =
        for _ = 1 to batch do
          ok (Secdb_net.Client.call c (Secdb_net.Wire.Ping "x"))
        done
      in
      let burst = List.init batch (fun _ -> Secdb_net.Wire.Ping "x") in
      let pipelined () = List.iter ok (Secdb_net.Client.pipeline c burst) in
      let t_serial = time_per_call ~min_time serial /. float_of_int batch in
      let t_pipe = time_per_call ~min_time pipelined /. float_of_int batch in
      let speedup = t_serial /. t_pipe in
      sample ~section:"net" ~name:"rtt-serial" ~qualifier:"unix-socket" ~unit_:"calls/s"
        (1. /. t_serial);
      sample ~section:"net" ~name:"rtt-pipelined"
        ~qualifier:(Printf.sprintf "batch-%d" batch)
        ~unit_:"calls/s" (1. /. t_pipe);
      sample ~section:"net" ~name:"pipeline-speedup" ~qualifier:"serial/pipelined" ~unit_:"x"
        speedup;
      row "  serial %9.0f   pipelined %9.0f   speedup %.2fx" (1. /. t_serial) (1. /. t_pipe)
        speedup)

let bench_server ~fast =
  (* the tentpole number: the same pipelined SQL workload — four clients,
     one table each, half inserts, half point selects — against 1, 2 and
     4 shards.  On a 1-CPU container the 4-shard row lands at or below
     1x and is recorded honestly; the speedup needs real cores. *)
  let nclients = 4 in
  let per_client = if fast then 60 else 300 in
  header "Sharded serving: %d pipelined SQL clients, %d ops each (ops/s)" nclients per_client;
  let ok = function
    | Ok _ -> ()
    | Error e -> failwith (Secdb_net.Client.error_to_string e)
  in
  let run_at shards =
    with_net_server ~shards (fun addr auth_key ->
        let clients =
          Array.init nclients (fun i ->
              net_connect ~seed:(Int64.of_int (100 + i)) addr auth_key)
        in
        Fun.protect
          ~finally:(fun () -> Array.iter Secdb_net.Client.close clients)
          (fun () ->
            (* one table per client, created outside the timed region *)
            Array.iteri
              (fun i c ->
                let t = Printf.sprintf "s%d" i in
                ok
                  (Secdb_net.Client.call c
                     (Secdb_net.Wire.Sql
                        (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, v TEXT)" t)));
                ok
                  (Secdb_net.Client.call c
                     (Secdb_net.Wire.Sql (Printf.sprintf "CREATE INDEX ON %s (v)" t))))
              clients;
            let burst i =
              let t = Printf.sprintf "s%d" i in
              List.init per_client (fun j ->
                  Secdb_net.Wire.Sql
                    (if j land 1 = 0 then
                       Printf.sprintf "INSERT INTO %s VALUES (%d, 'v%03d')" t j (j mod 37)
                     else Printf.sprintf "SELECT id FROM %s WHERE v = 'v%03d'" t (j mod 37)))
            in
            let t0 = Unix.gettimeofday () in
            let workers =
              Array.to_list
                (Array.mapi
                   (fun i c ->
                     Thread.create
                       (fun () -> List.iter ok (Secdb_net.Client.pipeline c (burst i)))
                       ())
                   clients)
            in
            List.iter Thread.join workers;
            let dt = Unix.gettimeofday () -. t0 in
            float_of_int (nclients * per_client) /. dt))
  in
  let rates = List.map (fun s -> (s, run_at s)) [ 1; 2; 4 ] in
  List.iter
    (fun (s, r) ->
      sample ~section:"server" ~name:"sql-pipelined"
        ~qualifier:(Printf.sprintf "%d-shards" s)
        ~unit_:"ops/s" r;
      row "  %d shard(s) %9.0f ops/s" s r)
    rates;
  let speedup = List.assoc 4 rates /. List.assoc 1 rates in
  sample ~section:"server" ~name:"speedup-4s" ~qualifier:"4-shards/1-shard" ~unit_:"x" speedup;
  row "  speedup-4s %.2fx (%d domain(s) recommended here)" speedup (Pool.recommended ());
  (* what the persistence costs: point lookups against the in-memory tree
     and against the AEAD-sealed paged tree whose working set exceeds
     both the node cache and the page cache *)
  let n = if fast then 800 else 4000 in
  let keyspace = 191 in
  let ctl = Vfs.Fault.make ~seed:22 () in
  let pager =
    Pager.create ~path:"mem:perf_pbt_bench.pg" ~page_size:512 ~cache_pages:8
      ~vfs:(Vfs.Fault.vfs ctl) ()
  in
  let aead = Secdb_aead.Eax.make aes_fast in
  let nonce = Secdb_aead.Nonce.counter ~size:aead.Secdb_aead.Aead.nonce_size () in
  let paged =
    Pbt.create ~pager
      ~seal:(Pbt.aead_seal ~aead ~nonce ~tree_id:78)
      ~order:8 ~cache_nodes:8 ~id:78 ()
  in
  let mem = B.create ~id:78 ~codec:B.plain_codec () in
  for i = 0 to n - 1 do
    let v = Value.Int (Int64.of_int (i * 7 mod keyspace)) in
    Pbt.insert paged v ~table_row:i;
    B.insert mem v ~table_row:i
  done;
  let min_time = if fast then 0.05 else 0.3 in
  let probe find =
    let s =
      time_per_call ~min_time (fun () ->
          for k = 0 to keyspace - 1 do
            ignore (find (Value.Int (Int64.of_int k)))
          done)
    in
    float_of_int keyspace /. s
  in
  let mem_rate = probe (B.find mem) in
  let paged_rate = probe (Pbt.find paged) in
  Pager.close pager;
  sample ~section:"server" ~name:"index-lookup" ~qualifier:"in-memory" ~unit_:"lookups/s"
    mem_rate;
  sample ~section:"server" ~name:"index-lookup" ~qualifier:"paged-aead" ~unit_:"lookups/s"
    paged_rate;
  row "  index lookups: in-memory %9.0f /s   paged+aead %9.0f /s (%.1fx cost)" mem_rate
    paged_rate
    (mem_rate /. paged_rate)

let bench_repl ~fast =
  (* the replication pipeline: the primary's seal+append+fsync rate, then
     the replica's critical path — sealed records read back from the log,
     re-verified (CRC, frame, sequence-as-AD, AEAD tag) and applied,
     routed across 2 shards.  The replica side bounds how fast a replica
     can catch up; the primary side is the write-path logging overhead. *)
  let n = if fast then 400 else 3000 in
  header "Replication pipeline over %d ops (ops/s)" n;
  let aead = Secdb_aead.Eax.make aes_fast in
  let nonce = Secdb_aead.Nonce.counter ~size:aead.Secdb_aead.Aead.nonce_size () in
  let shards = 2 in
  let mkdb shard =
    Secdb.Encdb.create ~master:"bench repl" ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax)
      ~seed:(Int64.of_int (51 + shard))
      ~first_table_id:((shard * 1_000_000) + 1)
      ~first_index_id:((shard * 1_000_000) + 1000)
      ()
  in
  let rschema name =
    Schema.v ~table_name:name
      [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]
  in
  let ops =
    Secdb.Oplog.Create_table (rschema "ra")
    :: Secdb.Oplog.Create_table (rschema "rb")
    :: List.init n (fun i ->
           Secdb.Oplog.Insert
             {
               table = (if i land 1 = 0 then "ra" else "rb");
               values = [ Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "v%06d" i) ];
             })
  in
  let ctl = Vfs.Fault.make ~seed:31 () in
  let w = Secdb.Oplog.create ~vfs:(Vfs.Fault.vfs ctl) ~path:"mem:repl.log" ~aead ~nonce () in
  let t0 = Unix.gettimeofday () in
  List.iter (fun op -> ignore (Secdb.Oplog.append w op)) ops;
  let seal_rate = float_of_int (List.length ops) /. (Unix.gettimeofday () -. t0) in
  let dbs = Array.init shards mkdb in
  let applied = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rec pull ack =
    match Secdb.Oplog.read_sealed w ~from:ack ~max:256 with
    | [] -> ()
    | records ->
        List.iter
          (fun (seq, sealed) ->
            match Secdb.Oplog.verify_sealed ~aead ~seq sealed with
            | Error e -> failwith e
            | Ok op -> (
                match Secdb_net.Repl.apply_routed dbs op with
                | Ok () -> incr applied
                | Error e -> failwith e))
          records;
        pull (ack + List.length records)
  in
  pull 0;
  let apply_rate = float_of_int !applied /. (Unix.gettimeofday () -. t0) in
  Secdb.Oplog.close w;
  sample ~section:"repl" ~name:"seal-append" ~qualifier:"mem-vfs" ~unit_:"ops/s" seal_rate;
  sample ~section:"repl" ~name:"ship-verify-apply" ~qualifier:"2-shards" ~unit_:"ops/s"
    apply_rate;
  row "  seal+append %9.0f ops/s   ship+verify+apply %9.0f ops/s (%d ops)" seal_rate apply_rate
    !applied

let bench_planner ~fast =
  (* plan-vs-plan: time every candidate plan the planner could have picked
     alongside the adaptive choice.  The adaptive executor runs the same
     code path as one of the forced plans, so adaptive/best should sit at
     ~1x (noise aside) and adaptive/worst well below 1x on shapes where
     the plans genuinely differ. *)
  let rows = if fast then 200 else 1600 in
  let min_time = if fast then 0.02 else 0.2 in
  let db = planner_db ~rows () in
  header "Adaptive planner vs forced plans, %d rows (ms/query)" rows;
  List.iter
    (fun (label, sql) ->
      let s = planner_select sql in
      let force p =
        match SE.exec_plan db s p with Ok r -> r | Error e -> failwith e
      in
      let plan_times =
        List.map
          (fun p -> (SPl.name p, time_per_call ~min_time (fun () -> force p)))
          (SE.candidate_plans db s)
      in
      let adaptive =
        time_per_call ~min_time (fun () ->
            match SE.exec_stmt db (SA.Select s) with Ok r -> r | Error e -> failwith e)
      in
      List.iter
        (fun (n, t) -> sample ~section:"planner" ~name:label ~qualifier:n ~unit_:"ms" (t *. 1e3))
        plan_times;
      sample ~section:"planner" ~name:label ~qualifier:"adaptive" ~unit_:"ms" (adaptive *. 1e3);
      let pick f = List.fold_left (fun acc (_, t) -> f acc t) (snd (List.hd plan_times)) plan_times in
      let best = pick min and worst = pick max in
      sample ~section:"planner" ~name:label ~qualifier:"adaptive-vs-best" ~unit_:"x"
        (adaptive /. best);
      sample ~section:"planner" ~name:label ~qualifier:"adaptive-vs-worst" ~unit_:"x"
        (adaptive /. worst);
      row "  %-12s adaptive %8.4f ms   best %8.4f   worst %8.4f   vs-best %.2fx   [%s]" label
        (adaptive *. 1e3) (best *. 1e3) (worst *. 1e3)
        (adaptive /. best)
        (String.concat " " (List.map (fun (n, t) -> Printf.sprintf "%s=%.4f" n (t *. 1e3)) plan_times)))
    planner_queries

(* ------------------------------------------------------------- JSON -- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~fast path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"suite\": \"secdb-perf\",\n");
  Buffer.add_string b (Printf.sprintf "  \"fast\": %b,\n" fast);
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Pool.recommended ()));
  Buffer.add_string b "  \"samples\": [\n";
  let entries =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "    {\"section\": \"%s\", \"name\": \"%s\", \"qualifier\": \"%s\", \
           \"value\": %.3f, \"unit\": \"%s\"}"
          (json_escape s.section) (json_escape s.name) (json_escape s.qualifier)
          s.value (json_escape s.unit_))
      !samples
  in
  Buffer.add_string b (String.concat ",\n" entries);
  Buffer.add_string b "\n  ],\n";
  (* counter snapshot from the equivalence checks: how much work the bulk
     paths actually did (cells, chunks, AEAD calls) alongside how fast *)
  let counters =
    match !check_snapshot with Some s -> s.Secdb_obs.Metrics.counters | None -> []
  in
  Buffer.add_string b "  \"check_counters\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun (name, v) ->
            Printf.sprintf "    {\"name\": \"%s\", \"value\": %d}" (json_escape name) v)
          counters));
  Buffer.add_string b "\n  ]\n}\n";
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents b));
  row "\nwrote %s (%d samples)" path (List.length entries)

(* -------------------------------------------------------------- cli -- *)

let () =
  (* the net benches write to sockets the peer may already have closed;
     surface that as EPIPE instead of dying on SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv in
  let fast = List.mem "--fast" args in
  let check_only = List.mem "--check" args in
  let ok = run_checks () in
  if not ok then exit 1;
  if not check_only then begin
    bench_modes ~fast;
    bench_aead ~fast;
    bench_cells ~fast;
    bench_bulk_load ~fast;
    bench_obs_overhead ~fast;
    bench_vfs_overhead ~fast;
    bench_net ~fast;
    bench_server ~fast;
    bench_repl ~fast;
    bench_planner ~fast;
    write_json ~fast "BENCH_perf.json"
  end
