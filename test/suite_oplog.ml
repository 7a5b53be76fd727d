open Secdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng

let tmp = Filename.concat (Filename.get_temp_dir_name ()) "secdb_oplog.log"
let aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'L'))
let foreign_aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'M'))

let schema =
  Schema.v ~table_name:"t"
    [ Schema.column ~protection:Schema.Clear "id" Value.Kint; Schema.column "v" Value.Ktext ]

let fresh_db () =
  let db = Encdb.create ~master:"log master" ~profile:(Encdb.Fixed Encdb.Ocb) () in
  Encdb.create_table db schema;
  Encdb.create_index db ~table:"t" ~col:"v";
  db

let sample_ops n =
  let rng = Rng.create ~seed:81L () in
  List.concat
    (List.init n (fun i ->
         let base =
           Oplog.Insert
             { table = "t"; values = [ Value.Int (Int64.of_int i); Value.Text (Rng.alpha rng 8) ] }
         in
         if i mod 5 = 4 then
           [ base; Oplog.Update { table = "t"; row = i - 1; col = "v"; value = Value.Text "edited" } ]
         else if i mod 7 = 6 then [ base; Oplog.Delete { table = "t"; row = i - 2 } ]
         else [ base ]))

let write_log ops =
  let w = Oplog.create ~path:tmp ~aead ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) () in
  List.iter (fun op -> ignore (Oplog.append w op)) ops;
  let n = Oplog.count w in
  Oplog.close w;
  n

(* Walk the on-disk framing: [len:4][record][crc:4] per record; returns the
   byte offset of each record start. *)
let record_offsets data =
  let rec walk off acc =
    if off >= String.length data then List.rev acc
    else
      let rlen = Xbytes.be_string_to_int (String.sub data off 4) in
      walk (off + 8 + rlen) (off :: acc)
  in
  walk 0 []

let test_replay_rebuilds_identical_db () =
  let ops = sample_ops 30 in
  let db = fresh_db () in
  List.iter (fun op -> match Oplog.apply db op with Ok () -> () | Error e -> Alcotest.fail e) ops;
  let n = write_log ops in
  Alcotest.(check int) "count" (List.length ops) n;
  let db' = fresh_db () in
  (match Oplog.replay_into db' ~path:tmp ~aead () with
  | Ok applied -> Alcotest.(check int) "applied" n applied
  | Error e -> Alcotest.fail e.Oplog.reason);
  (* byte-identical state: same master + deterministic nonces would be
     needed for digest equality of AEAD cells, so compare logical content *)
  for row = 0 to 29 do
    let same =
      match (Secdb_query.Encrypted_table.get (Encdb.table db "t") ~row ~col:1,
             Secdb_query.Encrypted_table.get (Encdb.table db' "t") ~row ~col:1) with
      | Ok a, Ok b -> Value.equal a b
      | Error _, Error _ -> true
      | _ -> false
    in
    if not same then Alcotest.fail (Printf.sprintf "row %d differs after replay" row)
  done

let flip_byte_at path pos =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code data.[pos] lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let test_tamper_matrix () =
  let ops = sample_ops 10 in
  let n = write_log ops in
  (* 1. clean log verifies *)
  (match Oplog.replay ~path:tmp ~aead () with
  | Ok l -> Alcotest.(check int) "length" n (List.length l)
  | Error e -> Alcotest.fail e);
  (* 2. bit flip in the middle fails *)
  let size = (Unix.stat tmp).Unix.st_size in
  flip_byte_at tmp (size / 2);
  (match Oplog.replay ~path:tmp ~aead () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip accepted");
  (* 3. reordering records fails (sequence in AD) *)
  ignore (write_log ops);
  let data = In_channel.with_open_bin tmp In_channel.input_all in
  let rlen = Xbytes.be_string_to_int (String.sub data 0 4) + 8 in
  let r2len = Xbytes.be_string_to_int (String.sub data rlen 4) + 8 in
  let swapped =
    String.sub data rlen r2len ^ String.sub data 0 rlen
    ^ String.sub data (rlen + r2len) (String.length data - rlen - r2len)
  in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc swapped);
  (match Oplog.replay ~path:tmp ~aead () with
  | Error e -> Alcotest.(check bool) "names order/splice" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "reorder accepted");
  (* 4. foreign key fails *)
  ignore (write_log ops);
  (match Oplog.replay ~path:tmp ~aead:foreign_aead () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign key accepted");
  (* 5. tail truncation yields a shorter VALID log: the out-of-band count
     is the defence *)
  ignore (write_log ops);
  let data = In_channel.with_open_bin tmp In_channel.input_all in
  let last_start = List.hd (List.rev (record_offsets data)) in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (String.sub data 0 last_start));
  (match Oplog.replay ~path:tmp ~aead () with
  | Ok l ->
      Alcotest.(check int) "one record silently gone" (n - 1) (List.length l);
      Alcotest.(check bool) "count mismatch detects it" true (List.length l <> n)
  | Error e -> Alcotest.fail e);
  (* 6. mid-log truncation (cut across a record) fails *)
  ignore (write_log ops);
  let data = In_channel.with_open_bin tmp In_channel.input_all in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data - 3)));
  match Oplog.replay ~path:tmp ~aead () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cut record accepted"

(* recover: longest valid prefix + a verdict that names the failure mode *)
let test_recover_verdicts () =
  let ops = sample_ops 6 in
  let n = write_log ops in
  let clean = In_channel.with_open_bin tmp In_channel.input_all in
  let offsets = record_offsets clean in
  let with_data data f =
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
    match Oplog.recover ~path:tmp ~aead () with
    | Ok (prefix, tail) -> f (List.length prefix) tail
    | Error e -> Alcotest.fail e
  in
  (* clean log: everything, Complete *)
  with_data clean (fun k tail ->
      Alcotest.(check int) "clean: all records" n k;
      Alcotest.(check bool) "clean tail" true (tail = Oplog.Complete));
  (* empty log *)
  with_data "" (fun k tail ->
      Alcotest.(check int) "empty" 0 k;
      Alcotest.(check bool) "empty is complete" true (tail = Oplog.Complete));
  (* 2 bytes of a length field *)
  let second = List.nth offsets 1 in
  with_data (String.sub clean 0 (second + 2)) (fun k tail ->
      Alcotest.(check int) "torn length: one survivor" 1 k;
      match tail with
      | Oplog.Torn_length { off; have } ->
          Alcotest.(check int) "offset" second off;
          Alcotest.(check int) "have" 2 have
      | t -> Alcotest.fail ("expected Torn_length, got " ^ Oplog.tail_to_string t));
  (* record cut mid-body: the torn write *)
  let third = List.nth offsets 2 in
  with_data (String.sub clean 0 (third + 9)) (fun k tail ->
      Alcotest.(check int) "torn record: two survive" 2 k;
      match tail with
      | Oplog.Torn_record { seq; off; _ } ->
          Alcotest.(check int) "seq" 2 seq;
          Alcotest.(check int) "offset" third off
      | t -> Alcotest.fail ("expected Torn_record, got " ^ Oplog.tail_to_string t));
  (* corrupt a byte inside record 3's body: CRC catches it before AEAD *)
  let fourth = List.nth offsets 3 in
  let corrupted = Bytes.of_string clean in
  Bytes.set corrupted (fourth + 6) (Char.chr (Char.code clean.[fourth + 6] lxor 0x40));
  with_data (Bytes.to_string corrupted) (fun k tail ->
      Alcotest.(check int) "crc: three survive" 3 k;
      match tail with
      | Oplog.Bad_crc { seq; _ } -> Alcotest.(check int) "seq" 3 seq
      | t -> Alcotest.fail ("expected Bad_crc, got " ^ Oplog.tail_to_string t));
  (* zero-filled tail (lost-extent crash image): implausible length *)
  with_data (String.sub clean 0 second ^ String.make 64 '\000') (fun k tail ->
      Alcotest.(check int) "zero tail: one survivor" 1 k;
      match tail with
      | Oplog.Bad_length { seq; len; _ } ->
          Alcotest.(check int) "seq" 1 seq;
          Alcotest.(check int) "len" 0 len
      | t -> Alcotest.fail ("expected Bad_length, got " ^ Oplog.tail_to_string t));
  (* wrong key: CRC passes, AEAD refuses *)
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc clean);
  (match Oplog.recover ~path:tmp ~aead:foreign_aead () with
  | Ok (prefix, Oplog.Bad_auth { seq = 0; _ }) ->
      Alcotest.(check int) "foreign key: nothing survives" 0 (List.length prefix)
  | Ok (_, t) -> Alcotest.fail ("expected Bad_auth at 0, got " ^ Oplog.tail_to_string t)
  | Error e -> Alcotest.fail e);
  (* missing file is the only hard error *)
  match Oplog.recover ~path:(tmp ^ ".does-not-exist") ~aead () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recover invented a log"

(* Durability has one rule: every append call writes its records and
   fsyncs exactly once before it returns, and nothing it acked is left for
   [close] to sync.  A counting VFS over the real file system sees every
   fsync the writer issues. *)
let counting_vfs () =
  let fsyncs = ref 0 in
  let open_file ~path ~mode =
    let f = Secdb_storage.Vfs.unix.open_file ~path ~mode in
    { f with Secdb_storage.Vfs.fsync = (fun () -> incr fsyncs; f.fsync ()) }
  in
  ({ Secdb_storage.Vfs.name = "counting"; open_file }, fsyncs)

let test_one_fsync_per_append () =
  let ops = sample_ops 8 in
  let k = List.length ops in
  let vfs, fsyncs = counting_vfs () in
  let w = Oplog.create ~vfs ~path:tmp ~aead ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) () in
  let step ?(w = w) ?(fsyncs = fsyncs) what expect f =
    let before = !fsyncs in
    let r = f () in
    Alcotest.(check int) (what ^ ": fsyncs") expect (!fsyncs - before);
    Alcotest.(check int) (what ^ ": acked means durable") (Oplog.count w) (Oplog.durable w);
    r
  in
  Alcotest.(check int) "a fresh log syncs nothing" 0 !fsyncs;
  Alcotest.(check int) "append returns its seq" 0
    (step "append" 1 (fun () -> Oplog.append w (List.hd ops)));
  Alcotest.(check int) "batch returns its first seq" 1
    (step "batch" 1 (fun () -> Oplog.append_batch w (List.tl ops)));
  Alcotest.(check int) "empty batch returns the next seq" k
    (step "empty batch" 0 (fun () -> Oplog.append_batch w []));
  step "close" 0 (fun () -> ());
  let before = !fsyncs in
  Oplog.close w;
  Alcotest.(check int) "close of a durable log syncs nothing" before !fsyncs;
  let batched = In_channel.with_open_bin tmp In_channel.input_all in
  (* a batch writes byte-for-byte what as many single appends write *)
  Alcotest.(check int) "single appends" k (write_log ops);
  let singles = In_channel.with_open_bin tmp In_channel.input_all in
  Alcotest.(check bool) "batch bytes = single-append bytes" true (batched = singles);
  (* a replica's copy of the whole log takes one fsync; a rejected batch none *)
  let records =
    let p = Oplog.create ~path:(tmp ^ ".src") ~aead
        ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) () in
    ignore (Oplog.append_batch p ops);
    let r = List.map snd (Oplog.read_sealed p ~from:0 ~max:k) in
    Oplog.close p;
    Sys.remove (tmp ^ ".src");
    r
  in
  let vfs, fsyncs = counting_vfs () in
  let w = Oplog.create ~vfs ~path:tmp ~aead ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) () in
  let step = step ~w ~fsyncs in
  (match step "sealed copy" 1 (fun () -> Oplog.append_sealed w records) with
  | copied, Ok () -> Alcotest.(check int) "every record copied" k (List.length copied)
  | _, Error e -> Alcotest.fail e);
  (match step "rejected copy" 0 (fun () -> Oplog.append_sealed w records) with
  | [], Error _ -> ()
  | _ -> Alcotest.fail "records accepted at the wrong sequence numbers");
  Oplog.close w;
  Alcotest.(check bool) "a replica's log is the primary's bytes" true
    (singles = In_channel.with_open_bin tmp In_channel.input_all)

let suites =
  [
    ( "core:oplog",
      [
        Alcotest.test_case "replay rebuilds the database" `Quick
          test_replay_rebuilds_identical_db;
        Alcotest.test_case "tamper matrix" `Quick test_tamper_matrix;
        Alcotest.test_case "recover verdicts" `Quick test_recover_verdicts;
        Alcotest.test_case "one fsync per append call" `Quick test_one_fsync_per_append;
      ] );
  ]
