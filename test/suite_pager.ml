module Pager = Secdb_storage.Pager
module Blob = Secdb_storage.Blob_store
module Vfs = Secdb_storage.Vfs
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("secdb_pager_" ^ name)

let test_pager_basics () =
  let path = tmp "basic.pg" in
  let p = Pager.create ~path ~page_size:128 ~cache_pages:4 () in
  Alcotest.(check int) "page size" 128 (Pager.page_size p);
  let a = Pager.alloc p and b = Pager.alloc p in
  Alcotest.(check bool) "distinct pages" true (a <> b);
  Pager.write p a "hello page a";
  Pager.write p b "hello page b";
  Alcotest.(check string) "read back a" "hello page a" (String.sub (Pager.read p a) 0 12);
  Alcotest.(check string) "zero padded" (String.make 10 '\000')
    (String.sub (Pager.read p a) 12 10);
  (* free + realloc recycles *)
  Pager.free p a;
  let c = Pager.alloc p in
  Alcotest.(check int) "recycled" a c;
  Alcotest.(check string) "recycled page zeroed" (String.make 128 '\000') (Pager.read p c);
  Alcotest.check_raises "header protected" (Invalid_argument "Pager.free: page 0 out of range")
    (fun () -> Pager.free p 0);
  Alcotest.check_raises "oversized write"
    (Invalid_argument "Pager.write: data exceeds the page size") (fun () ->
      Pager.write p a (String.make 129 'x'));
  Pager.close p

let test_pager_persistence () =
  let path = tmp "persist.pg" in
  let p = Pager.create ~path ~page_size:256 () in
  let pages = List.init 10 (fun i -> (Pager.alloc p, Printf.sprintf "persistent page %d" i)) in
  List.iter (fun (page, content) -> Pager.write p page content) pages;
  Pager.free p (fst (List.nth pages 4));
  Pager.close p;
  match Pager.open_file ~path () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check int) "page size restored" 256 (Pager.page_size p');
      Alcotest.(check int) "page count restored" 10 (Pager.page_count p');
      List.iteri
        (fun i (page, content) ->
          if i <> 4 then
            Alcotest.(check string)
              (Printf.sprintf "page %d" i)
              content
              (String.sub (Pager.read p' page) 0 (String.length content)))
        pages;
      (* the free list also survived *)
      Alcotest.(check int) "freed page recycled after reopen" (fst (List.nth pages 4))
        (Pager.alloc p');
      Pager.close p'

let test_pager_open_errors () =
  (match Pager.open_file ~path:(tmp "missing.pg") () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file opened");
  let path = tmp "junk.pg" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "this is not a pager file at all");
  match Pager.open_file ~path () with
  | Error e -> Alcotest.(check bool) "reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "junk accepted"

(* forge a header with chosen fields and check open_file's verdict *)
let forged_header ~psize ~npages ~free_head =
  Pager.magic
  ^ Xbytes.int_to_be_string ~width:4 psize
  ^ Xbytes.int_to_be_string ~width:4 npages
  ^ Xbytes.int_to_be_string ~width:4 free_head

let test_header_validation () =
  let path = tmp "header.pg" in
  let try_header ?(pad = 0) h =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc h;
        Out_channel.output_string oc (String.make pad '\000'));
    Pager.open_file ~path ()
  in
  let expect_error name h =
    match try_header ~pad:256 h with
    | Error e -> Alcotest.(check bool) (name ^ " reported") true (String.length e > 0)
    | Ok _ -> Alcotest.fail (name ^ " accepted")
  in
  expect_error "tiny page size" (forged_header ~psize:32 ~npages:1 ~free_head:0);
  expect_error "zero page size" (forged_header ~psize:0 ~npages:1 ~free_head:0);
  expect_error "free head beyond npages" (forged_header ~psize:64 ~npages:2 ~free_head:3);
  expect_error "wrong magic"
    ("XXXXXXXX" ^ String.sub (forged_header ~psize:64 ~npages:1 ~free_head:0) 8 12);
  (* truncated header: shorter than 20 bytes must not be read as zeros *)
  (match try_header (String.sub (forged_header ~psize:64 ~npages:1 ~free_head:0) 0 13) with
  | Error e -> Alcotest.(check bool) "truncated header reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "truncated header accepted");
  (* a well-formed forged header with no pages is fine *)
  match try_header (forged_header ~psize:64 ~npages:0 ~free_head:0) with
  | Ok p -> Pager.close p
  | Error e -> Alcotest.fail ("valid minimal header rejected: " ^ e)

let test_short_read_open () =
  (* the fault VFS delivers reads in dribbles; open_file must loop, not
     decode a partial header *)
  let ctl = Vfs.Fault.make ~seed:42 () in
  Vfs.Fault.set_short_reads ctl true;
  let vfs = Vfs.Fault.vfs ctl in
  let path = "mem:short.pg" in
  let p = Pager.create ~path ~page_size:128 ~cache_pages:4 ~vfs () in
  let a = Pager.alloc p in
  Pager.write p a "short read survivor";
  Pager.close p;
  match Pager.open_file ~path ~vfs () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check string) "data intact" "short read survivor"
        (String.sub (Pager.read p' a) 0 19);
      Pager.close p'

let test_free_zeroizes () =
  let path = tmp "zeroize.pg" in
  let p = Pager.create ~path ~page_size:128 ~cache_pages:4 () in
  let a = Pager.alloc p in
  let secret = "TOP-SECRET-PLAINTEXT-RESIDUE" in
  Pager.write p a secret;
  Pager.flush p;
  Pager.free p a;
  Pager.close p;
  (* inspect the raw file: beyond the 8-byte next pointer the page must be
     zero — no remanence of the freed payload (page 0 is the header page,
     so page [a] starts at [a * page_size]) *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let off = a * 128 in
  let tail = String.sub data (off + 8) (128 - 8) in
  Alcotest.(check string) "freed page zeroized" (String.make 120 '\000') tail;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "secret gone from file" true (not (contains data secret))

let test_cache_accounting () =
  let path = tmp "cache.pg" in
  let p = Pager.create ~path ~page_size:64 ~cache_pages:2 () in
  let pages = List.init 4 (fun _ -> Pager.alloc p) in
  List.iter (fun page -> Pager.write p page "x") pages;
  Pager.flush p;
  Pager.reset_stats p;
  (* touching 3 distinct pages through a 2-page cache must evict *)
  List.iteri (fun i page -> if i < 3 then ignore (Pager.read p page)) pages;
  let st = Pager.stats p in
  Alcotest.(check bool) "misses counted" true (st.Pager.cache_misses >= 1);
  Alcotest.(check bool) "evictions happened" true (st.Pager.evictions >= 1);
  (* re-reading the hottest page is a hit *)
  let hot = List.nth pages 2 in
  let hits0 = st.Pager.cache_hits in
  ignore (Pager.read p hot);
  Alcotest.(check bool) "hit counted" true ((Pager.stats p).Pager.cache_hits > hits0);
  (* dirty eviction does not lose data *)
  Pager.write p (List.nth pages 0) "dirty-evict me";
  ignore (Pager.read p (List.nth pages 1));
  ignore (Pager.read p (List.nth pages 2));
  ignore (Pager.read p (List.nth pages 3));
  Alcotest.(check string) "dirty page survived eviction" "dirty-evict me"
    (String.sub (Pager.read p (List.nth pages 0)) 0 14);
  Pager.close p

(* The process-wide pager.* counters mirror each pager's stats, and every
   page read is exactly one hit or one miss: the hit rate is
   cache_hits / (cache_hits + cache_misses). *)
let test_registry_counters () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let module Metrics = Secdb_obs.Metrics in
  let path = tmp "registry.pg" in
  let p = Pager.create ~path ~page_size:64 ~cache_pages:8 () in
  let pages = List.init 5 (fun _ -> Pager.alloc p) in
  List.iter (fun page -> Pager.write p page "x") pages;
  Pager.close p;
  let hits = Metrics.counter "pager.cache_hits" and misses = Metrics.counter "pager.cache_misses" in
  let hits0 = Metrics.value hits and misses0 = Metrics.value misses in
  match Pager.open_file ~path ~cache_pages:3 () with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let reads = [ 1; 2; 1; 3; 4; 1; 5; 2; 2 ] in
      List.iter (fun page -> ignore (Pager.read p page)) reads;
      let st = Pager.stats p in
      Alcotest.(check int) "one hit or miss per read" (List.length reads)
        (st.Pager.cache_hits + st.Pager.cache_misses);
      Alcotest.(check int) "hits" 3 st.Pager.cache_hits;
      Alcotest.(check int) "registry hits" st.Pager.cache_hits (Metrics.value hits - hits0);
      Alcotest.(check int) "registry misses" st.Pager.cache_misses
        (Metrics.value misses - misses0);
      Pager.close p

let test_blob_roundtrip () =
  let path = tmp "blob.pg" in
  let p = Pager.create ~path ~page_size:96 ~cache_pages:8 () in
  let store = Blob.attach p in
  let rng = Rng.create ~seed:71L () in
  let blobs =
    List.init 30 (fun i -> (Rng.bytes rng (Rng.int rng 500), i))
    |> List.map (fun (data, _) -> (Blob.store store data, data))
  in
  List.iter
    (fun (id, data) ->
      match Blob.load store id with
      | Ok d when d = data -> ()
      | Ok _ -> Alcotest.fail "blob corrupted"
      | Error e -> Alcotest.fail (Blob.chain_error_to_string e))
    blobs;
  (* chains span multiple pages for large blobs *)
  let big_id = Blob.store store (String.make 1000 'B') in
  (match Blob.pages_of store big_id with
  | Ok pages -> Alcotest.(check bool) "multi-page" true (List.length pages >= 12)
  | Error e -> Alcotest.fail (Blob.chain_error_to_string e));
  (* overwrite shrinking and growing *)
  ignore (Blob.overwrite store big_id "now tiny");
  (match Blob.load store big_id with
  | Ok "now tiny" -> ()
  | _ -> Alcotest.fail "shrink failed");
  ignore (Blob.overwrite store big_id (String.make 2000 'G'));
  (match Blob.load store big_id with
  | Ok s when s = String.make 2000 'G' -> ()
  | _ -> Alcotest.fail "grow failed");
  (* delete releases pages for reuse *)
  let before = Pager.page_count p in
  Blob.delete store big_id;
  let re_id = Blob.store store (String.make 2000 'R') in
  Alcotest.(check int) "pages recycled" before (Pager.page_count p);
  (match Blob.load store re_id with
  | Ok s when s = String.make 2000 'R' -> ()
  | _ -> Alcotest.fail "recycled blob broken");
  (* empty blob *)
  let e = Blob.store store "" in
  (match Blob.load store e with Ok "" -> () | _ -> Alcotest.fail "empty blob");
  Pager.close p

let test_blob_persistence_of_saved_table () =
  (* the full artefact path: encrypted table -> bytes -> blob chain -> file,
     reopened and decoded *)
  let path = tmp "artefact.pg" in
  let aes = Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'K') in
  let scheme =
    Secdb_schemes.Fixed_cell.make ~aead:(Secdb_aead.Eax.make aes)
      ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
      ()
  in
  let schema =
    Secdb_db.Schema.v ~table_name:"t"
      [ Secdb_db.Schema.column "v" Secdb_db.Value.Ktext ]
  in
  let tbl = Secdb_query.Encrypted_table.create ~id:3 schema ~scheme:(fun _ -> scheme) in
  for i = 0 to 40 do
    ignore (Secdb_query.Encrypted_table.insert tbl [ Secdb_db.Value.Text (Printf.sprintf "row %d" i) ])
  done;
  let p = Pager.create ~path ~page_size:512 () in
  let id = Blob.store (Blob.attach p) (Secdb_storage.Storage.encode_table tbl) in
  Pager.close p;
  match Pager.open_file ~path () with
  | Error e -> Alcotest.fail e
  | Ok p' -> (
      match Blob.load (Blob.attach p') id with
      | Error e -> Alcotest.fail (Blob.chain_error_to_string e)
      | Ok bytes -> (
          match Secdb_storage.Storage.decode_table ~scheme:(fun _ -> scheme) bytes with
          | Error e -> Alcotest.fail e
          | Ok tbl' ->
              Alcotest.(check string) "cell decrypts after disk roundtrip" "row 17"
                (Secdb_db.Value.text_exn
                   (Secdb_query.Encrypted_table.get_exn tbl' ~row:17 ~col:0));
              Pager.close p'))

let qc = Test_seed.qc

let prop_blob_roundtrip =
  QCheck2.Test.make ~name:"blob store/load/overwrite roundtrip" ~count:40
    QCheck2.Gen.(pair (string_size (int_range 0 700)) (string_size (int_range 0 700)))
    (fun (a, b) ->
      let path = tmp "prop.pg" in
      let p = Pager.create ~path ~page_size:80 ~cache_pages:3 () in
      let store = Blob.attach p in
      let id = Blob.store store a in
      let ok1 = Blob.load store id = Ok a in
      ignore (Blob.overwrite store id b);
      let ok2 = Blob.load store id = Ok b in
      Pager.close p;
      ok1 && ok2)

let suites =
  [
    ( "storage:pager",
      [
        Alcotest.test_case "basics" `Quick test_pager_basics;
        Alcotest.test_case "persistence" `Quick test_pager_persistence;
        Alcotest.test_case "open errors" `Quick test_pager_open_errors;
        Alcotest.test_case "header validation" `Quick test_header_validation;
        Alcotest.test_case "short reads while opening" `Quick test_short_read_open;
        Alcotest.test_case "free zeroizes the page" `Quick test_free_zeroizes;
        Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
        Alcotest.test_case "registry counters mirror stats" `Quick test_registry_counters;
      ] );
    ( "storage:blobs",
      [
        Alcotest.test_case "roundtrips and recycling" `Quick test_blob_roundtrip;
        Alcotest.test_case "encrypted table through the pager" `Quick
          test_blob_persistence_of_saved_table;
        qc prop_blob_roundtrip;
      ] );
  ]
