(* The paged B+-tree must be indistinguishable from the in-memory index
   to every reader: same find/range answers in the same order on random
   workloads larger than its caches, byte-identical behaviour after a
   flush/close/reopen cycle, tamper detection through the page seal, and
   oplog-replay recovery to the synced model from every crash point. *)

open Secdb
module Value = Secdb_db.Value
module Bptree = Secdb_index.Bptree
module Vfs = Secdb_storage.Vfs
module Pager = Secdb_storage.Pager
module Pbt = Secdb_storage.Paged_bptree
module Fsck = Secdb_storage.Fsck

let aes = Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'P')
let aead = Secdb_aead.Eax.make aes
let nonce () = Secdb_aead.Nonce.counter ~size:16 ()
let seal ~tree_id = Pbt.aead_seal ~aead ~nonce:(nonce ()) ~tree_id

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("secdb_paged_" ^ name)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* an in-memory disk: fault VFS with no faults armed *)
let mem_pager ?(page_size = 512) ?(cache_pages = 4) name =
  let ctl = Vfs.Fault.make ~seed:0 () in
  (ctl, Pager.create ~path:name ~page_size ~cache_pages ~vfs:(Vfs.Fault.vfs ctl) ())

(* {2 Units} *)

let test_empty () =
  let _, p = mem_pager "mem:empty.pg" in
  let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:7) ~id:7 () in
  Alcotest.(check (list int)) "empty find" [] (Pbt.find t (Value.Int 1L));
  Alcotest.(check int) "empty range" 0 (List.length (Pbt.range t ()));
  Alcotest.(check int) "size" 0 (Pbt.size t)

let test_insert_find_duplicates () =
  let _, p = mem_pager "mem:dups.pg" in
  let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:1) ~id:1 () in
  (* duplicates must come back in insertion order, like the in-memory tree *)
  List.iter (fun r -> Pbt.insert t (Value.Int 5L) ~table_row:r) [ 30; 10; 20 ];
  Pbt.insert t (Value.Int 4L) ~table_row:1;
  Pbt.insert t (Value.Int 6L) ~table_row:2;
  Alcotest.(check (list int)) "dup order" [ 30; 10; 20 ] (Pbt.find t (Value.Int 5L));
  Alcotest.(check int) "size" 5 (Pbt.size t);
  Alcotest.(check bool) "delete one dup" true (Pbt.delete t (Value.Int 5L) ~table_row:10);
  Alcotest.(check (list int)) "dup order after delete" [ 30; 20 ]
    (Pbt.find t (Value.Int 5L));
  Alcotest.(check bool) "delete absent" false (Pbt.delete t (Value.Int 5L) ~table_row:10)

let test_large_dataset_beyond_caches () =
  (* dataset >= 10x both the node cache and the pager cache; every probe
     must still answer exactly, with the cache staying bounded *)
  let _, p = mem_pager ~cache_pages:8 "mem:large.pg" in
  let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:2) ~cache_nodes:8 ~id:2 () in
  let n = 600 in
  for i = 0 to n - 1 do
    Pbt.insert t (Value.Int (Int64.of_int (i mod 97))) ~table_row:i
  done;
  Alcotest.(check bool) "node cache bounded" true (Pbt.cached_nodes t <= 8);
  Alcotest.(check bool) "many pages" true (Pager.page_count p > 80);
  Alcotest.(check int) "size" n (Pbt.size t);
  for k = 0 to 96 do
    let expect =
      List.filter (fun i -> i mod 97 = k) (List.init n Fun.id)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "find %d" k)
      expect
      (Pbt.find t (Value.Int (Int64.of_int k)))
  done;
  Alcotest.(check int) "full range" n (List.length (Pbt.range t ()))

let test_flush_reopen () =
  let path = tmp "reopen.pg" in
  let p = Pager.create ~path ~page_size:512 ~cache_pages:8 () in
  let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:3) ~cache_nodes:8 ~id:3 () in
  for i = 0 to 199 do
    Pbt.insert t (Value.Int (Int64.of_int (i mod 31))) ~table_row:i
  done;
  let meta = Pbt.meta_page t in
  let want = Pbt.range t () in
  Pbt.flush t;
  Pager.close p;
  (match Pager.open_file ~path ~cache_pages:8 () with
  | Error e -> Alcotest.fail e
  | Ok p' -> (
      match Pbt.open_tree ~pager:p' ~seal:(seal ~tree_id:3) ~cache_nodes:8 ~meta () with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          Alcotest.(check int) "size survives" 200 (Pbt.size t');
          Alcotest.(check int) "id survives" 3 (Pbt.id t');
          Alcotest.(check bool) "entries survive" true (Pbt.range t' () = want);
          Pager.close p'));
  (* wrong key: the meta page must refuse to authenticate *)
  match Pager.open_file ~path ~cache_pages:8 () with
  | Error e -> Alcotest.fail e
  | Ok p'' ->
      let bad = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'X')) in
      let bad_seal = Pbt.aead_seal ~aead:bad ~nonce:(nonce ()) ~tree_id:3 in
      (match Pbt.open_tree ~pager:p'' ~seal:bad_seal ~cache_nodes:8 ~meta () with
      | Ok _ -> Alcotest.fail "wrong key opened the tree"
      | Error _ -> ());
      (* wrong tree id in the associated data is just as fatal *)
      (match Pbt.open_tree ~pager:p'' ~seal:(seal ~tree_id:4) ~cache_nodes:8 ~meta () with
      | Ok _ -> Alcotest.fail "wrong tree id opened the tree"
      | Error _ -> ());
      Pager.close p''

let test_tamper_detected () =
  let path = tmp "tamper.pg" in
  let p = Pager.create ~path ~page_size:512 ~cache_pages:8 () in
  let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:9) ~cache_nodes:8 ~id:9 () in
  for i = 0 to 99 do
    Pbt.insert t (Value.Int (Int64.of_int i)) ~table_row:i
  done;
  let meta = Pbt.meta_page t in
  Pbt.flush t;
  Pager.close p;
  (* flip one byte in the first node page (allocated right after meta:
     the initial root leaf, still on the leaf chain) — a full scan must
     refuse to decode it rather than answer from forged bytes *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let off = ((meta + 1) * 512) + 20 in
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
  write_file path (Bytes.to_string b);
  match Pager.open_file ~path ~cache_pages:8 () with
  | Error e -> Alcotest.fail e
  | Ok p' -> (
      match Pbt.open_tree ~pager:p' ~seal:(seal ~tree_id:9) ~cache_nodes:8 ~meta () with
      | Error e -> Alcotest.fail ("tamper hit the meta page: " ^ e)
      | Ok t' ->
          (try
             ignore (Pbt.range t' ());
             Alcotest.fail "tampered node page decoded"
           with Pbt.Integrity _ -> ());
          Pager.close p')

(* {2 Equivalence with the in-memory tree} *)

(* apply the same signed-int op stream to both trees; negative = delete *)
let apply_op mem paged n =
  let v = Value.Int (Int64.of_int (abs n mod 13)) in
  if n < 0 then begin
    let row = abs n mod 59 in
    let a = Bptree.delete mem v ~table_row:row in
    let b = Pbt.delete paged v ~table_row:row in
    if a <> b then failwith "delete verdicts differ"
  end
  else begin
    Bptree.insert mem v ~table_row:n;
    Pbt.insert paged v ~table_row:n
  end

let check_equiv mem paged =
  for k = 0 to 13 do
    let v = Value.Int (Int64.of_int k) in
    if Bptree.find mem v <> Pbt.find paged v then failwith "find differs"
  done;
  if Bptree.range mem () <> Pbt.range paged () then failwith "full range differs";
  let lo = Value.Int 3L and hi = Value.Int 9L in
  if Bptree.range mem ~lo ~hi () <> Pbt.range paged ~lo ~hi () then
    failwith "bounded range differs";
  if Bptree.size mem <> Pbt.size paged then failwith "size differs"

let qc = Test_seed.qc

let prop_paged_equals_in_memory =
  QCheck2.Test.make
    ~name:"paged tree answers exactly like the in-memory tree beyond its caches" ~count:25
    QCheck2.Gen.(list_size (int_range 50 220) (int_range (-700) 700))
    (fun ops ->
      let mem = Bptree.create ~id:11 ~codec:Bptree.plain_codec () in
      let _, p = mem_pager ~page_size:512 ~cache_pages:4 "mem:equiv.pg" in
      let paged = Pbt.create ~pager:p ~seal:(seal ~tree_id:11) ~cache_nodes:8 ~id:11 () in
      try
        List.iter (fun n -> apply_op mem paged n) ops;
        check_equiv mem paged;
        (* survive a flush/reopen round-trip mid-workload too *)
        let meta = Pbt.meta_page paged in
        Pbt.flush paged;
        (match Pbt.open_tree ~pager:p ~seal:(seal ~tree_id:11) ~cache_nodes:8 ~meta () with
        | Error e -> failwith e
        | Ok reopened -> check_equiv mem reopened);
        true
      with Failure msg -> QCheck2.Test.fail_report msg)

(* {2 Crash matrix} *)

(* One fault disk carries both the oplog (sync=Always) and the tree's
   pager.  Crash at pwrite [k]; the recovery story is the oplog's: replay
   the recovered prefix into a fresh tree and compare against the
   in-memory model of the same prefix.  The torn tree image itself only
   has to keep fsck and reopen well-behaved. *)

let crash_ops =
  List.init 14 (fun i ->
      if i mod 5 = 4 then Oplog.Delete { table = "t"; row = i - 2 }
      else Oplog.Insert { table = "t"; values = [ Value.Int (Int64.of_int (i mod 4)) ] })

let tree_apply t i op =
  match op with
  | Oplog.Insert { values = [ Value.Int v ]; _ } -> Pbt.insert t (Value.Int v) ~table_row:i
  | Oplog.Delete { row; _ } ->
      ignore (Pbt.delete t (Value.Int (Int64.of_int (row mod 4))) ~table_row:row)
  | _ -> assert false

let mem_apply mem i op =
  match op with
  | Oplog.Insert { values = [ Value.Int v ]; _ } -> Bptree.insert mem (Value.Int v) ~table_row:i
  | Oplog.Delete { row; _ } ->
      ignore (Bptree.delete mem (Value.Int (Int64.of_int (row mod 4))) ~table_row:row)
  | _ -> assert false

let log_path = "mem:tree.log"
let db_path = "mem:tree.pg"

let crash_point ~k =
  let ctl = Vfs.Fault.make ~seed:(4000 + k) () in
  Vfs.Fault.crash_after_writes ctl k;
  let vfs = Vfs.Fault.vfs ctl in
  let acked = ref 0 in
  (try
     let w = Oplog.create ~vfs ~path:log_path ~aead ~nonce:(nonce ()) () in
     let p = Pager.create ~path:db_path ~page_size:512 ~cache_pages:4 ~vfs () in
     let t = Pbt.create ~pager:p ~seal:(seal ~tree_id:5) ~cache_nodes:8 ~id:5 () in
     List.iteri
       (fun i op ->
         ignore (Oplog.append w op);
         incr acked;
         tree_apply t i op;
         if i mod 4 = 3 then begin
           Pbt.flush t;
           Pager.sync p
         end)
       crash_ops;
     Pbt.flush t;
     Oplog.close w;
     Pager.close p
   with Vfs.Crashed _ -> ());
  let crashed = Vfs.Fault.crashed ctl in
  (* the torn tree image: fsck terminates, reopen answers *)
  let img_path = tmp "crash.pg" in
  write_file img_path (Vfs.Fault.dump ctl ~path:db_path);
  let report = Fsck.run ~path:img_path () in
  List.iter (fun i -> ignore (Fsck.issue_to_string i)) report.Fsck.issues;
  (match Pager.open_file ~path:img_path () with Ok p -> Pager.close p | Error _ -> ());
  (* recovery: oplog prefix -> fresh tree == in-memory model *)
  let lpath = tmp "crash.log" in
  write_file lpath (Vfs.Fault.dump ctl ~path:log_path);
  match Oplog.recover ~path:lpath ~aead () with
  | Error e -> Error (Printf.sprintf "k=%d: oplog image unreadable: %s" k e)
  | Ok (recovered, _) ->
      if crashed && List.length recovered <> !acked then
        Error
          (Printf.sprintf "k=%d: sync=Always recovered %d of %d acked ops" k
             (List.length recovered) !acked)
      else begin
        let rpath = tmp "rebuild.pg" in
        let rp = Pager.create ~path:rpath ~page_size:512 ~cache_pages:8 () in
        let rt = Pbt.create ~pager:rp ~seal:(seal ~tree_id:5) ~cache_nodes:8 ~id:5 () in
        let mem = Bptree.create ~id:5 ~codec:Bptree.plain_codec () in
        List.iter
          (fun (seq, op) ->
            tree_apply rt seq op;
            mem_apply mem seq op)
          recovered;
        let same =
          List.for_all
            (fun kk ->
              Bptree.find mem (Value.Int (Int64.of_int kk))
              = Pbt.find rt (Value.Int (Int64.of_int kk)))
            [ 0; 1; 2; 3 ]
          && Bptree.range mem () = Pbt.range rt ()
        in
        Pbt.flush rt;
        Pager.close rp;
        let rebuilt_report = Fsck.run ~path:rpath () in
        if not same then Error (Printf.sprintf "k=%d: rebuilt tree differs from model" k)
        else if not (Fsck.ok rebuilt_report) then
          Error
            (Printf.sprintf "k=%d: rebuilt image not clean: %s" k
               (String.concat "; "
                  (List.map Fsck.issue_to_string rebuilt_report.Fsck.issues)))
        else Ok crashed
      end

let test_tree_crash_matrix () =
  let rec loop k =
    if k > 400 then Alcotest.fail "crash never stopped firing"
    else
      match crash_point ~k with
      | Error msg -> Alcotest.fail msg
      | Ok true -> loop (k + 1)
      | Ok false -> k
  in
  let total = loop 1 in
  Alcotest.(check bool) "matrix had real extent" true (total > 10)

let suites =
  [
    ( "storage:paged-bptree",
      [
        Alcotest.test_case "empty tree" `Quick test_empty;
        Alcotest.test_case "duplicates keep insertion order" `Quick
          test_insert_find_duplicates;
        Alcotest.test_case "dataset 10x beyond both caches" `Quick
          test_large_dataset_beyond_caches;
        Alcotest.test_case "flush/reopen, wrong key, wrong tree id" `Quick test_flush_reopen;
        Alcotest.test_case "node tamper raises Integrity" `Quick test_tamper_detected;
        Alcotest.test_case "crash matrix: oplog replay rebuilds the model" `Quick
          test_tree_crash_matrix;
        qc prop_paged_equals_in_memory;
      ] );
  ]
