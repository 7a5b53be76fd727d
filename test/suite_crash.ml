(* Crash matrix: every write of a workload is a crash point.  The fault
   VFS freezes the durable image there; reopening it must recover exactly
   the acked prefix (oplog) and fsck must terminate with a report
   (pager), for every point. *)

open Secdb
module Value = Secdb_db.Value
module Vfs = Secdb_storage.Vfs
module Pager = Secdb_storage.Pager
module Blob = Secdb_storage.Blob_store
module Fsck = Secdb_storage.Fsck
module Xbytes = Secdb_util.Xbytes

let aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'C'))
let nonce () = Secdb_aead.Nonce.counter ~size:16 ()

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("secdb_crash_" ^ name)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let sample_ops n =
  List.init n (fun i ->
      Oplog.Insert { table = "t"; values = [ Value.Int (Int64.of_int i) ] })

(* {2 Oplog crash matrix} *)

let log_path = "mem:crash.log"

(* run [ops] against a disk that crashes at pwrite [k]; returns
   (acked, crashed, durable image) *)
let crash_run ~seed ~k ops =
  let ctl = Vfs.Fault.make ~seed () in
  Vfs.Fault.crash_after_writes ctl k;
  let vfs = Vfs.Fault.vfs ctl in
  let acked = ref 0 in
  (try
     let w = Oplog.create ~vfs ~path:log_path ~aead ~nonce:(nonce ()) () in
     List.iter
       (fun op ->
         ignore (Oplog.append w op);
         incr acked)
       ops;
     Oplog.close w
   with Vfs.Crashed _ -> ());
  (!acked, Vfs.Fault.crashed ctl, Vfs.Fault.dump ctl ~path:log_path)

(* reopen the frozen image and check the recovered prefix against the
   model: every acked append fsynced before its ack, so exactly the acked
   records survive *)
let check_point ~seed ~k ops =
  let acked, crashed, image = crash_run ~seed ~k ops in
  let path = tmp "image.log" in
  write_file path image;
  match Oplog.recover ~path ~aead () with
  | Error e -> Error (Printf.sprintf "k=%d: image unreadable: %s" k e)
  | Ok (recovered, tail) ->
      if List.length recovered <> acked then
        Error
          (Printf.sprintf "k=%d: recovered %d records, model promises %d (tail: %s)" k
             (List.length recovered) acked (Oplog.tail_to_string tail))
      else if
        not
          (List.for_all2
             (fun (seq, got) (seq', expect) -> seq = seq' && got = expect)
             recovered
             (List.filteri (fun i _ -> i < acked) (List.mapi (fun i op -> (i, op)) ops)))
      then Error (Printf.sprintf "k=%d: recovered records differ from the workload prefix" k)
      else Ok crashed

let test_matrix_always () =
  let ops = sample_ops 9 in
  let rec loop k =
    if k > 200 then Alcotest.fail "crash never stopped firing"
    else
      match check_point ~seed:(7000 + k) ~k ops with
      | Error msg -> Alcotest.fail msg
      | Ok true -> loop (k + 1)
      | Ok false -> k (* first point past the workload: every write survived *)
  in
  let total = loop 1 in
  Alcotest.(check bool) "matrix covered the workload" true (total > List.length ops / 2)

let test_acked_never_lost_under_always () =
  (* the headline durability claim, checked point by point *)
  let ops = sample_ops 7 in
  for k = 1 to 7 do
    let acked, crashed, image = crash_run ~seed:(900 + k) ~k ops in
    Alcotest.(check bool) "crash fired" true crashed;
    let path = tmp "always.log" in
    write_file path image;
    match Oplog.recover ~path ~aead () with
    | Ok (recovered, _) ->
        Alcotest.(check int)
          (Printf.sprintf "k=%d: every acked append survives" k)
          acked (List.length recovered)
    | Error e -> Alcotest.fail e
  done

let test_io_error_leaves_record_boundary () =
  (* an injected ENOSPC mid-append must not leave a torn record behind a
     live writer: append truncates back, the next append lands cleanly *)
  let ctl = Vfs.Fault.make ~seed:5 () in
  let vfs = Vfs.Fault.vfs ctl in
  let w = Oplog.create ~vfs ~path:log_path ~aead ~nonce:(nonce ()) () in
  let op = List.hd (sample_ops 1) in
  ignore (Oplog.append w op);
  Vfs.Fault.fail_op ctl ~op:`Pwrite ~after:1 ~err:`ENOSPC;
  (try
     ignore (Oplog.append w op);
     Alcotest.fail "injected ENOSPC did not surface"
   with Vfs.Io_error _ -> ());
  ignore (Oplog.append w op);
  Oplog.close w;
  let path = tmp "enospc.log" in
  write_file path (Vfs.Fault.dump ctl ~path:log_path);
  match Oplog.replay ~path ~aead () with
  | Ok l -> Alcotest.(check int) "clean boundary, both records" 2 (List.length l)
  | Error e -> Alcotest.fail e

(* {2 Pager / fsck crash matrix} *)

let db_path = "mem:db.pg"

let pager_workload vfs =
  let p = Pager.create ~path:db_path ~page_size:128 ~cache_pages:4 ~vfs () in
  let store = Blob.attach p in
  let a = Blob.store store (String.make 500 'A') in
  let b = Blob.store store "crash matrix blob" in
  Pager.flush p;
  Pager.sync p;
  let c = Blob.store store (String.make 260 'C') in
  Blob.delete store c;
  ignore (Blob.overwrite store b (String.make 300 'B'));
  Pager.close p;
  (a, b)

let test_pager_crash_matrix () =
  let rec loop k =
    if k > 300 then Alcotest.fail "crash never stopped firing"
    else begin
      let ctl = Vfs.Fault.make ~seed:(3000 + k) () in
      Vfs.Fault.crash_after_writes ctl k;
      let roots = try Some (pager_workload (Vfs.Fault.vfs ctl)) with Vfs.Crashed _ -> None in
      let path = tmp "image.pg" in
      write_file path (Vfs.Fault.dump ctl ~path:db_path);
      (* fsck must terminate with a report on every image, broken or not *)
      let report = Fsck.run ~path () in
      List.iter (fun i -> ignore (Fsck.issue_to_string i)) report.Fsck.issues;
      (* reopening must answer, never raise *)
      (match Pager.open_file ~path () with Ok p -> Pager.close p | Error _ -> ());
      match roots with
      | None -> loop (k + 1)
      | Some (a, b) ->
          (* the workload outran the crash point: a cleanly closed image
             must be spotless, chains included *)
          let report = Fsck.run ~roots:[ a; b ] ~path () in
          if not (Fsck.ok report) then
            Alcotest.fail
              (String.concat "; " (List.map Fsck.issue_to_string report.Fsck.issues));
          k
    end
  in
  let total = loop 1 in
  Alcotest.(check bool) "matrix had real extent" true (total > 5)

(* {2 Fsck on handcrafted corruption} *)

(* page 0 is the header page: the 20 header bytes padded to a full page *)
let forge_header ~psize ~npages ~free_head =
  let h =
    Pager.magic
    ^ Xbytes.int_to_be_string ~width:4 psize
    ^ Xbytes.int_to_be_string ~width:4 npages
    ^ Xbytes.int_to_be_string ~width:4 free_head
  in
  h ^ String.make (psize - String.length h) '\000'

let page_bytes ~psize ~next content =
  let body = Xbytes.int_to_be_string ~width:8 next ^ content in
  body ^ String.make (psize - String.length body) '\000'

let test_fsck_free_cycle () =
  let path = tmp "cycle.pg" in
  write_file path
    (forge_header ~psize:64 ~npages:2 ~free_head:1
    ^ page_bytes ~psize:64 ~next:2 ""
    ^ page_bytes ~psize:64 ~next:1 "");
  let report = Fsck.run ~path () in
  let is_cycle = function Fsck.Free_cycle _ -> true | _ -> false in
  Alcotest.(check bool) "free cycle reported" true (List.exists is_cycle report.Fsck.issues)

let test_fsck_free_range () =
  let path = tmp "range.pg" in
  write_file path
    (forge_header ~psize:64 ~npages:1 ~free_head:1 ^ page_bytes ~psize:64 ~next:9 "");
  let report = Fsck.run ~path () in
  let is_range = function Fsck.Free_range _ -> true | _ -> false in
  Alcotest.(check bool) "wild free pointer reported" true
    (List.exists is_range report.Fsck.issues)

let test_fsck_trailing_garbage () =
  let path = tmp "garbage.pg" in
  let p = Pager.create ~path ~page_size:64 () in
  ignore (Pager.alloc p);
  Pager.close p;
  let data = In_channel.with_open_bin path In_channel.input_all in
  write_file path (data ^ "leftover bytes from a lost write");
  let report = Fsck.run ~path () in
  let is_garbage = function Fsck.Trailing_garbage _ -> true | _ -> false in
  Alcotest.(check bool) "trailing bytes reported" true
    (List.exists is_garbage report.Fsck.issues)

let test_blob_chain_cycle_is_structured () =
  (* a next pointer bent back onto the chain: load and fsck both name the
     offending page, in linear time *)
  let path = tmp "chain.pg" in
  let p = Pager.create ~path ~page_size:64 ~cache_pages:4 () in
  let store = Blob.attach p in
  let id = Blob.store store (String.make 120 'Z') in
  let pages =
    match Blob.pages_of store id with Ok l -> l | Error _ -> Alcotest.fail "chain unreadable"
  in
  Alcotest.(check bool) "blob spans pages" true (List.length pages >= 2);
  Pager.close p;
  (* point the second page back at the first *)
  let second = List.nth pages 1 in
  let off = second * 64 in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  Bytes.blit_string (Xbytes.int_to_be_string ~width:8 (List.hd pages)) 0 b off 8;
  write_file path (Bytes.to_string b);
  (match Pager.open_file ~path () with
  | Error e -> Alcotest.fail e
  | Ok p' -> (
      let store' = Blob.attach p' in
      (match Blob.load store' id with
      | Ok _ -> Alcotest.fail "cyclic chain loaded"
      | Error e ->
          Alcotest.(check bool) "error names a chain page" true
            (List.mem e.Blob.page pages);
          Alcotest.(check bool) "error mentions the cycle" true
            (String.length e.Blob.reason > 0));
      Pager.close p'));
  let report = Fsck.run ~roots:[ id ] ~path () in
  let is_chain = function Fsck.Chain { head; _ } -> head = id | _ -> false in
  Alcotest.(check bool) "fsck reports the chain" true (List.exists is_chain report.Fsck.issues)

(* {2 Properties} *)

let qc = Test_seed.qc

let prop_recover_matches_model =
  QCheck2.Test.make ~name:"crash point recovery matches the synced model" ~count:60
    QCheck2.Gen.(tup3 (int_range 1 40) (int_range 1 12) (int_range 0 9999))
    (fun (k, nops, seed) ->
      match check_point ~seed ~k (sample_ops nops) with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_corruption_yields_prefix =
  QCheck2.Test.make ~name:"arbitrary corruption never yields a non-prefix" ~count:60
    QCheck2.Gen.(
      tup4 (int_range 1 8) (float_range 0. 1.) bool (int_range 0 255))
    (fun (nops, frac, cut, mask) ->
      let ops = sample_ops nops in
      let path = tmp "corrupt.log" in
      let w = Oplog.create ~path ~aead ~nonce:(nonce ()) () in
      List.iter (fun op -> ignore (Oplog.append w op)) ops;
      Oplog.close w;
      let clean = In_channel.with_open_bin path In_channel.input_all in
      let pos =
        min (String.length clean - 1) (int_of_float (frac *. float (String.length clean)))
      in
      let doctored =
        if cut then String.sub clean 0 pos
        else begin
          let b = Bytes.of_string clean in
          Bytes.set b pos (Char.chr (Char.code clean.[pos] lxor (1 lor mask)));
          Bytes.to_string b
        end
      in
      write_file path doctored;
      match Oplog.recover ~path ~aead () with
      | Error _ -> QCheck2.Test.fail_report "readable file reported unreadable"
      | Ok (recovered, _) ->
          let expect = List.mapi (fun i op -> (i, op)) ops in
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
            | _ :: _, [] -> false
          in
          is_prefix recovered expect)

let prop_faulty_disk_equivalence =
  QCheck2.Test.make ~name:"short reads + torn writes change nothing observable" ~count:20
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let image_of faulty =
        let ctl = Vfs.Fault.make ~seed () in
        if faulty then begin
          Vfs.Fault.set_short_reads ctl true;
          Vfs.Fault.set_torn_writes ctl true
        end;
        ignore (pager_workload (Vfs.Fault.vfs ctl));
        Vfs.Fault.dump ctl ~path:db_path
      in
      image_of false = image_of true)

let prop_fsck_terminates =
  QCheck2.Test.make ~name:"fsck terminates on arbitrary page soup" ~count:40
    QCheck2.Gen.(
      tup3 (int_range 0 8) (int_range 0 10) (string_size ~gen:char (int_range 0 512)))
    (fun (npages, free_head, soup) ->
      let path = tmp "soup.pg" in
      write_file path (forge_header ~psize:64 ~npages ~free_head ^ soup);
      let report = Fsck.run ~path () in
      List.iter (fun i -> ignore (Fsck.issue_to_string i)) report.Fsck.issues;
      true)

let suites =
  [
    ( "storage:crash",
      [
        Alcotest.test_case "oplog matrix, sync=Always" `Quick test_matrix_always;
        Alcotest.test_case "Always never loses an acked append" `Quick
          test_acked_never_lost_under_always;
        Alcotest.test_case "ENOSPC leaves a record boundary" `Quick
          test_io_error_leaves_record_boundary;
        Alcotest.test_case "pager matrix: fsck every image" `Quick test_pager_crash_matrix;
        qc prop_recover_matches_model;
        qc prop_corruption_yields_prefix;
        qc prop_faulty_disk_equivalence;
      ] );
    ( "storage:fsck",
      [
        Alcotest.test_case "free-list cycle" `Quick test_fsck_free_cycle;
        Alcotest.test_case "wild free pointer" `Quick test_fsck_free_range;
        Alcotest.test_case "trailing garbage" `Quick test_fsck_trailing_garbage;
        Alcotest.test_case "blob chain cycle is a structured error" `Quick
          test_blob_chain_cycle_is_structured;
        qc prop_fsck_terminates;
      ] );
  ]
