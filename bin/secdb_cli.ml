(* secdb — command-line front end.

   Subcommands:
     encrypt   encrypt a value for a cell address under a chosen profile
     decrypt   decrypt (and integrity-check) stored cell bytes
     mu        print the address digest µ(t,r,c) under each hash
     digest    hash a string with the bundled hash functions
     attack    run one of the paper's attacks (A1..A8)
     stats     run a deterministic workload and dump the metric registry
     fsck      check a pager file (header, free list, blob chains)
     pgdemo    write a small deterministic pager file for fsck demos
     profiles  list the protection profiles
     serve     serve over the authenticated wire (standalone, primary or replica)
     restore   point-in-time recovery from an authenticated oplog
     client    run SQL against a server
     ping      health-check a server *)

open Cmdliner
module Value = Secdb_db.Value
module Address = Secdb_db.Address
module Xbytes = Secdb_util.Xbytes
module Einst = Secdb_schemes.Einst

let profile_conv =
  let parse s =
    match
      List.find_opt
        (fun p -> Secdb.Encdb.profile_name p = String.lowercase_ascii s)
        Secdb.Encdb.all_profiles
    with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown profile %s (try: %s)" s
               (String.concat ", " (List.map Secdb.Encdb.profile_name Secdb.Encdb.all_profiles))))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Secdb.Encdb.profile_name p))

let profile_arg =
  Arg.(
    value
    & opt profile_conv (Secdb.Encdb.Fixed Secdb.Encdb.Eax)
    & info [ "p"; "profile" ] ~docv:"PROFILE" ~doc:"Protection profile.")

let master_arg =
  Arg.(
    value
    & opt string "secdb demo master key"
    & info [ "k"; "master" ] ~docv:"KEY" ~doc:"Master key for the session keyring.")

let addr_args =
  let table = Arg.(value & opt int 1 & info [ "t"; "table" ] ~docv:"T" ~doc:"Table id.") in
  let row = Arg.(value & opt int 0 & info [ "r"; "row" ] ~docv:"R" ~doc:"Row number.") in
  let col = Arg.(value & opt int 0 & info [ "c"; "col" ] ~docv:"C" ~doc:"Column number.") in
  Term.(
    const (fun t r c -> Address.v ~table:t ~row:r ~col:c) $ table $ row $ col)

let scheme_of ~master ~profile addr =
  (* stand-alone cell scheme equivalent to what Encdb would build *)
  let keyring = Secdb.Keyring.open_session ~master in
  let key = Secdb.Keyring.cell_key keyring ~table:addr.Address.table ~col:addr.Address.col in
  let aes = Secdb_cipher.Aes.cipher ~key in
  let mu = Address.mu_sha1 ~width:16 in
  let e = Einst.cbc_zero_iv aes in
  match profile with
  | Secdb.Encdb.Elovici_append | Secdb.Encdb.Shmueli_improved
  | Secdb.Encdb.Shmueli_repaired_keys ->
      Secdb_schemes.Cell_append.make ~e ~mu
  | Secdb.Encdb.Elovici_xor ->
      Secdb_schemes.Cell_xor.make ~e ~mu ~strip_zero_extension:true
        ~validate:(fun s -> Xbytes.is_ascii7 s) ()
  | Secdb.Encdb.Fixed which ->
      let mac_key = Secdb.Keyring.mac_key keyring ~table:addr.Address.table ~col:addr.Address.col in
      let aead =
        match which with
        | Secdb.Encdb.Eax -> Secdb_aead.Eax.make aes
        | Secdb.Encdb.Ocb -> Secdb_aead.Ocb.make aes
        | Secdb.Encdb.Ccfb -> Secdb_aead.Ccfb.make aes
        | Secdb.Encdb.Etm -> Secdb_aead.Compose.encrypt_then_mac ~cipher:aes ~mac_key ()
        | Secdb.Encdb.Gcm -> Secdb_aead.Gcm.make aes
        | Secdb.Encdb.Siv -> Secdb_aead.Siv.make (Secdb_cipher.Aes.cipher ~key:mac_key) aes
      in
      Secdb_schemes.Fixed_cell.make ~aead
        ~nonce:
          (Secdb_aead.Nonce.of_rng
             (Secdb_util.Rng.create ~seed:(Int64.of_int (Hashtbl.hash (master, addr))) ())
             ~size:aead.Secdb_aead.Aead.nonce_size)
        ()
  | Secdb.Encdb.Siv_deterministic ->
      let mac_key = Secdb.Keyring.mac_key keyring ~table:addr.Address.table ~col:addr.Address.col in
      let aead = Secdb_aead.Siv.make (Secdb_cipher.Aes.cipher ~key:mac_key) aes in
      Secdb_schemes.Fixed_cell.make ~aead
        ~nonce:(Secdb_aead.Nonce.fixed (String.make 16 '\000'))
        ()

let encrypt_cmd =
  let value = Arg.(required & pos 0 (some string) None & info [] ~docv:"VALUE") in
  let run profile master addr value =
    let scheme = scheme_of ~master ~profile addr in
    let ct = Secdb_schemes.Cell_scheme.encrypt scheme addr value in
    Printf.printf "scheme : %s\naddress: %s\nstored : %s\n" scheme.Secdb_schemes.Cell_scheme.name
      (Fmt.str "%a" Address.pp addr) (Xbytes.to_hex ct)
  in
  Cmd.v
    (Cmd.info "encrypt" ~doc:"Encrypt a value for a cell address.")
    Term.(const run $ profile_arg $ master_arg $ addr_args $ value)

let decrypt_cmd =
  let ct = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX_CIPHERTEXT") in
  let run profile master addr hexct =
    let scheme = scheme_of ~master ~profile addr in
    match Secdb_schemes.Cell_scheme.decrypt scheme addr (Xbytes.of_hex hexct) with
    | Ok v -> Printf.printf "valid at %s: %S\n" (Fmt.str "%a" Address.pp addr) v
    | Error e ->
        Printf.printf "REJECTED: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "decrypt" ~doc:"Decrypt and integrity-check stored cell bytes.")
    Term.(const run $ profile_arg $ master_arg $ addr_args $ ct)

let mu_cmd =
  let run addr =
    List.iter
      (fun (mu : Address.mu) ->
        Printf.printf "%-12s %s\n" mu.Address.name (Xbytes.to_hex (mu.Address.digest addr)))
      [
        Address.mu_sha1 ~width:16;
        Address.mu_sha1 ~width:20;
        Address.mu_sha256 ~width:16;
        Address.mu_md5 ~width:16;
        Address.mu_identity;
      ]
  in
  Cmd.v
    (Cmd.info "mu" ~doc:"Print the address-conversion digest µ(t,r,c).")
    Term.(const run $ addr_args)

let digest_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"STRING") in
  let run s =
    Printf.printf "sha1   : %s\n" (Secdb_hash.Sha1.hex s);
    Printf.printf "sha256 : %s\n" (Secdb_hash.Sha256.hex s);
    Printf.printf "md5    : %s\n" (Secdb_hash.Md5.hex s)
  in
  Cmd.v (Cmd.info "digest" ~doc:"Hash a string with the bundled hash functions.")
    Term.(const run $ input)

let attack_cmd =
  let which =
    Arg.(
      value
      & pos 0 (some (enum [ ("A1", `A1); ("A2", `A2); ("A3", `A3); ("A6", `A6); ("A7", `A7) ]))
          None
      & info [] ~docv:"ATTACK" ~doc:"One of A1, A2, A3, A6, A7.")
  in
  let range =
    Arg.(
      value & flag
      & info [ "range" ]
          ~doc:
            "Report the bucketized range index's leakage bench (fixed seed): order/value \
             recovery and histogram distance against their pinned bounds; exits 1 if any \
             score is out of bounds.")
  in
  let run_one which =
    let rng = Secdb_util.Rng.create ~seed:1L () in
    let key = Xbytes.of_hex "000102030405060708090a0b0c0d0e0f" in
    let aes = Secdb_cipher.Aes.cipher ~key in
    let mu = Address.mu_sha1 ~width:16 in
    let e = Einst.cbc_zero_iv aes in
    let append = Secdb_schemes.Cell_append.make ~e ~mu in
    match which with
    | `A1 ->
        let prefix = String.make 32 'P' in
        let w =
          List.init 10 (fun i ->
              (i, if i mod 2 = 0 then prefix ^ Secdb_util.Rng.ascii rng 20 else Secdb_util.Rng.ascii rng 52))
        in
        let r = Secdb_attacks.Pattern_matching.cells ~scheme:append ~block:16 ~table:1 ~col:0 w in
        Printf.printf "pattern matching: %d/%d prefix-sharing pairs detected\n"
          r.Secdb_attacks.Pattern_matching.detected_pairs
          r.Secdb_attacks.Pattern_matching.true_pairs
    | `A2 -> (
        let addr = Address.v ~table:1 ~row:0 ~col:0 in
        match
          Secdb_attacks.Forgery.forge ~scheme:append ~block:16 ~addr
            ~value:(Secdb_util.Rng.ascii rng 48) ~rng
        with
        | Ok o ->
            Printf.printf "forgery: block %d replaced, accepted=%b changed=%b\n"
              o.Secdb_attacks.Forgery.modified_ct_block o.Secdb_attacks.Forgery.accepted
              o.Secdb_attacks.Forgery.changed
        | Error e -> print_endline e)
    | `A3 ->
        let ex = Secdb_attacks.Substitution.collision_search ~mu ~table:5 ~col:2 ~trials:1024 in
        Printf.printf "collisions among 1024 addresses: %d (expected %.1f, paper saw 6)\n"
          (List.length ex.Secdb_attacks.Substitution.collisions)
          ex.Secdb_attacks.Substitution.expected
    | `A6 -> (
        let codec =
          Secdb_schemes.Index12.codec ~e ~mac_cipher:aes ~rng ~indexed_table:1 ~indexed_col:0 ()
        in
        let ctx =
          { Secdb_index.Bptree.index_table = 1000; node_row = 4; kind = Secdb_index.Bptree.Leaf }
        in
        match
          Secdb_attacks.Mac_interaction.run ~codec ~ctx ~block:16
            ~value:(Value.Text (Secdb_util.Rng.ascii rng 47)) ~table_row:3 ~rng
        with
        | Ok o ->
            Printf.printf "same-key OMAC forgery: accepted=%b changed=%b\n"
              o.Secdb_attacks.Mac_interaction.accepted
              o.Secdb_attacks.Mac_interaction.value_changed
        | Error e -> print_endline e)
    | `A7 ->
        let stream = Secdb_schemes.Cell_append.make ~e:(Einst.ctr_zero aes) ~mu in
        let v1 = "known: AAAA BBBB CCCC DDDD" and v2 = "secret value 42 hidden!!!!" in
        let c1 = Secdb_schemes.Cell_scheme.encrypt stream (Address.v ~table:1 ~row:0 ~col:0) v1 in
        let c2 = Secdb_schemes.Cell_scheme.encrypt stream (Address.v ~table:1 ~row:1 ~col:0) v2 in
        let x = Secdb_attacks.Keystream_reuse.plaintext_xor_append ~ct_a:c1 ~ct_b:c2 in
        Printf.printf "keystream reuse recovered: %S\n"
          (Xbytes.take (String.length v2) (Secdb_attacks.Keystream_reuse.crib_drag ~known:v1 ~xor:x))
  in
  let run range which =
    if range then begin
      let lines = Secdb_attacks.Range_leak.bench () in
      print_string (Secdb_attacks.Range_leak.render lines);
      if not (List.for_all Secdb_attacks.Range_leak.within lines) then exit 1
    end
    else
      match which with
      | None ->
          prerr_endline "attack: expected one of A1, A2, A3, A6, A7 or --range";
          exit 2
      | Some w -> run_one w
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run one of the paper's attacks against the broken schemes, or report the range \
          index's leakage bench with --range.")
    Term.(const run $ range $ which)

let sql_cmd =
  let script =
    Arg.(
      value & opt (some string) None
      & info [ "e"; "execute" ] ~docv:"SQL"
          ~doc:"Execute one statement and exit (otherwise read statements from stdin).")
  in
  let file =
    Arg.(
      value & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Execute a ;-separated script from a file.")
  in
  let run profile master script file =
    let db = Secdb.Encdb.create ~master ~profile () in
    let exec line =
      match Secdb_sql.Engine.exec db line with
      | Ok r -> Fmt.pr "%a@." Secdb_sql.Engine.pp_result r
      | Error e -> Printf.printf "error: %s\n%!" e
    in
    match (script, file) with
    | Some s, _ -> exec s
    | None, Some path -> (
        let source = In_channel.with_open_text path In_channel.input_all in
        match Secdb_sql.Engine.exec_script db source with
        | Ok outcomes ->
            List.iter
              (fun (stmt, outcome) ->
                Fmt.pr "secdb> %a@.%a@." Secdb_sql.Ast.pp_stmt stmt
                  Secdb_sql.Engine.pp_result outcome)
              outcomes
        | Error e ->
            Printf.printf "error: %s\n" e;
            exit 1)
    | None, None -> (
        print_endline "secdb SQL shell - statements end at newline, ctrl-d quits";
        try
          while true do
            print_string "secdb> ";
            let line = read_line () in
            if String.trim line <> "" then exec line
          done
        with End_of_file -> print_newline ())
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run SQL statements against a fresh in-memory encrypted database.")
    Term.(const run $ profile_arg $ master_arg $ script $ file)

(* A fixed workload that touches every instrumented layer — pager cache,
   blob store, AEAD (including a rejected tamper), the domain pool, batch
   table encryption, an index walk, the paged B+-tree and the oplog —
   sized so every counter value is a pure function of the code, never of
   timing.  The cram suite pins the full text dump, which is what makes
   the counters a regression gate and not just ops sugar. *)
let stats_workload () =
  let module Metrics = Secdb_obs.Metrics in
  let module Pool = Secdb_util.Pool in
  let module Pager = Secdb_storage.Pager in
  let module Blob = Secdb_storage.Blob_store in
  let key = Xbytes.of_hex "000102030405060708090a0b0c0d0e0f" in
  let nonce_key = Xbytes.of_hex "ffeeddccbbaa99887766554433221100" in
  let aes = Secdb_cipher.Aes_fast.cipher ~key in
  let with_temp suffix f =
    let path = Filename.temp_file "secdb_stats" suffix in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)
  in
  (* pager: a 4-frame cache over 8 pages forces misses and evictions, the
     re-reads of the hot tail are the hits *)
  with_temp ".pg" (fun path ->
      let p = Pager.create ~path ~page_size:256 ~cache_pages:4 () in
      for i = 1 to 8 do
        let page = Pager.alloc p in
        Pager.write p page (Printf.sprintf "page-%d" i)
      done;
      for page = 1 to 8 do
        ignore (Pager.read p page)
      done;
      for _ = 1 to 3 do
        ignore (Pager.read p 8)
      done;
      Pager.close p);
  (* blob store: one chained blob spanning several pages, stored and read back *)
  with_temp ".blob" (fun path ->
      let p = Pager.create ~path ~page_size:256 ~cache_pages:8 () in
      let blob = Blob.attach p in
      let id = Blob.store blob (String.make 1000 'b') in
      (match Blob.load blob id with
      | Ok data when String.length data = 1000 -> ()
      | Ok _ | Error _ -> failwith "stats workload: blob roundtrip");
      Blob.delete blob id;
      Pager.close p);
  (* AEAD cells through the domain pool, plus one tampered cell that the
     authenticated decrypt must reject *)
  let scheme =
    Secdb_schemes.Fixed_cell.make_derived ~aead:(Secdb_aead.Eax.make aes) ~nonce_key ()
  in
  let jobs =
    Array.init 64 (fun i ->
        (Address.v ~table:1 ~row:i ~col:0, Printf.sprintf "cell-%02d" i))
  in
  Pool.with_pool ~domains:2 (fun pool ->
      let cts = Secdb_schemes.Cell_scheme.encrypt_cells ~pool scheme jobs in
      let dec_jobs = Array.map2 (fun (a, _) ct -> (a, ct)) jobs cts in
      let dec = Secdb_schemes.Cell_scheme.decrypt_cells ~pool scheme dec_jobs in
      Array.iteri
        (fun i r -> if r <> Ok (snd jobs.(i)) then failwith "stats workload: cell roundtrip")
        dec;
      let tampered = Xbytes.to_hex cts.(0) in
      let flipped =
        String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) tampered
      in
      (match Secdb_schemes.Cell_scheme.decrypt scheme (fst jobs.(0)) (Xbytes.of_hex flipped) with
      | Error _ -> ()
      | Ok _ -> failwith "stats workload: tamper was accepted");
      (* batch table insert + column decrypt + a filtered scan *)
      let schema =
        Secdb_db.Schema.v ~table_name:"stats"
          [
            Secdb_db.Schema.column ~protection:Secdb_db.Schema.Clear "id" Value.Kint;
            Secdb_db.Schema.column "a" Value.Ktext;
            Secdb_db.Schema.column "b" Value.Ktext;
          ]
      in
      let table =
        Secdb_query.Encrypted_table.create ~id:7 schema ~scheme:(fun _ ->
            Secdb_schemes.Fixed_cell.make_derived ~aead:(Secdb_aead.Eax.make aes) ~nonce_key ())
      in
      let rows =
        List.init 16 (fun i ->
            [
              Value.Int (Int64.of_int i);
              Value.Text (Printf.sprintf "a%02d" i);
              Value.Text (Printf.sprintf "b%02d" i);
            ])
      in
      Secdb_query.Encrypted_table.insert_many ~pool table rows;
      ignore (Secdb_query.Encrypted_table.decrypt_column ~pool table ~col:2);
      ignore
        (Secdb_query.Encrypted_table.select table (fun values ->
             match values.(0) with Value.Int i -> Int64.rem i 2L = 0L | _ -> false)));
  (* index walk over an encrypted B+-tree *)
  let codec = Secdb_schemes.Index3.codec ~e:(Einst.cbc_zero_iv aes) in
  let entries = List.init 32 (fun i -> (Value.Text (Printf.sprintf "k%03d" i), i)) in
  let tree = Secdb_index.Bptree.bulk_load ~id:9 ~codec entries in
  (match
     Secdb_query.Walker.range tree ~mode:Secdb_query.Walker.Corrected
       ~lo:(Value.Text "k010") ~hi:(Value.Text "k019") ()
   with
  | Ok a when List.length a.Secdb_query.Walker.results = 10 -> ()
  | Ok _ | Error _ -> failwith "stats workload: walker range");
  (* paged B+-tree: a sealed tree whose node cache is smaller than the
     node count, so loads, cache hits, evictions and the pager's dirty
     write-backs all fire *)
  (let module Pbt = Secdb_storage.Paged_bptree in
   with_temp ".pbt" (fun path ->
       let p = Pager.create ~path ~page_size:512 ~cache_pages:4 () in
       let nonce = Secdb_aead.Nonce.counter ~size:16 () in
       let seal = Pbt.aead_seal ~aead:(Secdb_aead.Eax.make aes) ~nonce ~tree_id:11 in
       let t = Pbt.create ~pager:p ~seal ~order:4 ~cache_nodes:8 ~id:11 () in
       for i = 1 to 48 do
         Pbt.insert t (Value.Int (Int64.of_int (i * 7 mod 48))) ~table_row:i
       done;
       for i = 1 to 48 do
         match Pbt.find t (Value.Int (Int64.of_int (i * 7 mod 48))) with
         | _ :: _ -> ()
         | [] -> failwith "stats workload: paged find"
       done;
       Pbt.flush t;
       Pager.close p));
  (* an encrypted SQL table through the adaptive planner, so the cost
     model's own inputs — db.rows{table} cardinality and the pager hit
     rate — land in the dump alongside the raw cache counters *)
  (let db =
     Secdb.Encdb.create ~master:"stats" ~profile:(Secdb.Encdb.Fixed Secdb.Encdb.Eax) ()
   in
   let sql q =
     match Secdb_sql.Engine.exec db q with
     | Ok _ -> ()
     | Error e -> failwith ("stats workload: " ^ q ^ ": " ^ e)
   in
   sql "CREATE TABLE kv (id INT CLEAR, v INT)";
   for i = 1 to 8 do
     sql (Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" i (i * 10))
   done;
   sql "CREATE INDEX ON kv (v)";
   sql "DELETE FROM kv WHERE id = 8";
   sql "SELECT * FROM kv WHERE v BETWEEN 20 AND 50");
  (* oplog: three authenticated appends, a full replay, and a replay of a
     tampered log that must fail *)
  with_temp ".oplog" (fun path ->
      let aead = Secdb_aead.Eax.make aes in
      let w = Secdb.Oplog.create ~path ~aead ~nonce:(Secdb_aead.Nonce.counter ~size:16 ()) () in
      ignore (Secdb.Oplog.append w (Secdb.Oplog.Insert { table = "t"; values = [ Value.Int 1L ] }));
      ignore
        (Secdb.Oplog.append w
           (Secdb.Oplog.Update { table = "t"; row = 0; col = "a"; value = Value.Int 2L }));
      ignore (Secdb.Oplog.append w (Secdb.Oplog.Delete { table = "t"; row = 0 }));
      Secdb.Oplog.close w;
      (match Secdb.Oplog.replay ~path ~aead () with
      | Ok ops when List.length ops = 3 -> ()
      | Ok _ -> failwith "stats workload: replay: wrong op count"
      | Error e -> failwith ("stats workload: replay: " ^ e));
      (* flip a ciphertext byte inside the last record and fix up its CRC
         trailer, so framing passes and the AEAD does the rejecting *)
      let data = In_channel.with_open_bin path In_channel.input_all in
      let rec last_record off =
        let rlen = Xbytes.be_string_to_int (String.sub data off 4) in
        let next = off + 8 + rlen in
        if next >= String.length data then (off, rlen) else last_record next
      in
      let off, rlen = last_record 0 in
      let b = Bytes.of_string data in
      let pos = off + 4 + (rlen / 2) in
      Bytes.set b pos (Char.chr (Char.code data.[pos] lxor 1));
      let crc = Secdb_util.Crc32.string (Bytes.sub_string b off (4 + rlen)) in
      Bytes.blit_string (Xbytes.int_to_be_string ~width:4 crc) 0 b (off + 4 + rlen) 4;
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      match Secdb.Oplog.replay ~path ~aead () with
      | Error _ -> ()
      | Ok _ -> failwith "stats workload: tampered replay was accepted")

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump the registry as JSON (with histogram detail).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Emit every span as a JSON line on stderr while the workload runs.")
  in
  let no_workload =
    Arg.(
      value & flag
      & info [ "no-workload" ]
          ~doc:"Skip the built-in workload and dump whatever the process has recorded.")
  in
  let run json trace no_workload =
    Secdb_obs.Obs.enable ();
    if trace then Secdb_obs.Trace.set_sink Secdb_obs.Trace.Stderr;
    if not no_workload then stats_workload ();
    let snap = Secdb_obs.Metrics.snapshot () in
    print_string
      (if json then Secdb_obs.Metrics.to_json snap else Secdb_obs.Metrics.to_text snap)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a deterministic workload across the crypto/storage/query stack and dump the \
          observability registry.")
    Term.(const run $ json $ trace $ no_workload)

(* fsck + a deterministic demo image for the cram suite.  The demo layout
   is fixed: page size 128, blob a = 600 bytes (6 pages), blob b = one
   page, a third 2-page blob stored and deleted so the free list is
   non-trivial. *)
let pgdemo_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run path =
    let module Pager = Secdb_storage.Pager in
    let module Blob = Secdb_storage.Blob_store in
    let p = Pager.create ~path ~page_size:128 ~cache_pages:8 () in
    let blob = Blob.attach p in
    let a = Blob.store blob (String.make 600 'A') in
    let b = Blob.store blob "hello, demo blob" in
    let c = Blob.store blob (String.make 200 'C') in
    Blob.delete blob c;
    Pager.flush p;
    let pages = Pager.page_count p in
    Pager.close p;
    Printf.printf "created %s: pages=%d blob-a=%d blob-b=%d\n" path pages a b
  in
  Cmd.v
    (Cmd.info "pgdemo" ~doc:"Write a small deterministic pager file (for fsck demos/tests).")
    Term.(const run $ path)

let fsck_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let roots =
    Arg.(
      value & opt_all int []
      & info [ "b"; "blob" ] ~docv:"ID" ~doc:"Blob id whose chain to walk (repeatable).")
  in
  let run path roots =
    let module Fsck = Secdb_storage.Fsck in
    let r = Fsck.run ~roots ~path () in
    Printf.printf "fsck %s\n" path;
    if r.Fsck.page_size > 0 then begin
      Printf.printf "  page size  %d\n  pages      %d\n  free       [%s]\n" r.Fsck.page_size
        r.Fsck.npages
        (String.concat " " (List.map string_of_int r.Fsck.free));
      List.iter
        (fun (head, pages) -> Printf.printf "  blob %-6d %d pages\n" head (List.length pages))
        r.Fsck.chains
    end;
    if Fsck.ok r then print_endline "clean"
    else begin
      List.iter (fun i -> Printf.printf "issue: %s\n" (Fsck.issue_to_string i)) r.Fsck.issues;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a pager file without trusting it: header sanity, free-list acyclicity, blob \
          chain bounds and free-list overlap.")
    Term.(const run $ path $ roots)

let profiles_cmd =
  let run () =
    List.iter (fun p -> print_endline (Secdb.Encdb.profile_name p)) Secdb.Encdb.all_profiles
  in
  Cmd.v (Cmd.info "profiles" ~doc:"List the protection profiles.") Term.(const run $ const ())

(* --- network front end ------------------------------------------------- *)

let net_addr_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "unix" ->
        let path = String.sub s (i + 1) (String.length s - i - 1) in
        if path = "" then Error (`Msg "unix: address needs a socket path")
        else Ok (Secdb_net.Wire.Unix_sock path)
    | Some i when String.sub s 0 i = "tcp" -> (
        match String.rindex_opt s ':' with
        | Some j when j > i -> (
            let host = String.sub s (i + 1) (j - i - 1) in
            match int_of_string_opt (String.sub s (j + 1) (String.length s - j - 1)) with
            | Some port when host <> "" && port >= 0 && port < 65536 ->
                Ok (Secdb_net.Wire.Tcp (host, port))
            | _ -> Error (`Msg "tcp: address needs HOST:PORT"))
        | _ -> Error (`Msg "tcp: address needs HOST:PORT"))
    | _ -> Error (`Msg (Printf.sprintf "bad address %S (use unix:PATH or tcp:HOST:PORT)" s))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Secdb_net.Wire.addr_to_string a))

let net_addr_arg =
  Arg.(
    value
    & opt net_addr_conv (Secdb_net.Wire.Unix_sock "/tmp/secdb.sock")
    & info [ "a"; "addr" ] ~docv:"ADDR" ~doc:"Server address: unix:PATH or tcp:HOST:PORT.")

(* Shard databases for serve/restore: one Encdb per shard with disjoint id
   ranges so derived keys and ciphertext addresses never collide across
   shards, and a per-shard seed offset from [db_seed] so nonce streams are
   deterministic.  Primary, replicas and offline restores of one logical
   database must agree on [db_seed] and the shard count — byte-identical
   state (and therefore Merkle-root attestation) depends on both. *)
let shard_db ~master ~profile ~db_seed shard =
  Secdb.Encdb.create ~master ~profile
    ~seed:(Int64.add db_seed (Int64.of_int shard))
    ~first_table_id:((shard * 1_000_000) + 1)
    ~first_index_id:((shard * 1_000_000) + 1000)
    ()

let db_seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "db-seed" ] ~docv:"N"
        ~doc:
          "Base seed for the per-shard databases. Primary, replicas and restores must use the \
           same value (and the same shard count) for byte-identical state.")

(* Replay a local oplog copy into freshly built shard databases, then
   open the writer in resume mode so new appends continue the history.
   Used by a restarting primary and by a replica with a local log. *)
let boot_resume ~aead ~nonce ~path dbs =
  (if Sys.file_exists path then
     match Secdb.Oplog.recover ~path ~aead () with
     | Error e ->
         prerr_endline ("serve: oplog unreadable: " ^ e);
         exit 1
     | Ok (ops, tail) ->
         List.iter
           (fun (seq, op) ->
             match Secdb_net.Repl.apply_routed dbs op with
             | Ok () -> ()
             | Error e ->
                 Printf.eprintf "serve: oplog replay failed at op %d: %s\n%!" seq e;
                 exit 1)
           ops;
         (match tail with
         | Secdb.Oplog.Complete -> ()
         | t -> Printf.eprintf "serve: oplog tail discarded (%s)\n%!" (Secdb.Oplog.tail_to_string t));
         Printf.printf "secdb: oplog resumed at %d op(s)\n%!" (List.length ops));
  Secdb.Oplog.create ~mode:`Resume ~path ~aead ~nonce ()

let serve_cmd =
  let seed =
    Arg.(
      value & opt (some int64) None
      & info [ "seed" ] ~docv:"N" ~doc:"Fix the challenge-nonce stream (tests).")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:"Drop a connection idle for this long (also bounds half-open peers).")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N" ~doc:"Per-connection pipelined-response cap.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:"Data-plane shard count; 0 picks the recommended domain count.")
  in
  let oplog =
    Arg.(
      value & opt (some string) None
      & info [ "oplog" ] ~docv:"PATH"
          ~doc:
            "Authenticated operation log. Alone: serve as a primary, resuming any existing \
             history and appending every mutation. With $(b,--replica-of): keep a verbatim \
             local copy of the shipped log.")
  in
  let replica_of =
    Arg.(
      value & opt (some net_addr_conv) None
      & info [ "replica-of" ] ~docv:"ADDR"
          ~doc:
            "Serve read-only, pulling the oplog from the primary at ADDR over the authenticated \
             wire protocol and applying it continuously.")
  in
  let run profile master addr seed read_timeout max_inflight shards oplog replica_of db_seed =
    Secdb_obs.Obs.enable ();
    (* A server's heap grows with its rows and never shrinks, so the peak
       resident set is the live rows plus the garbage the major GC lets
       float.  OCaml 5's default lets that garbage reach 120% of the live
       heap; 80 (OCaml 4's default) holds it closer, for a little more
       marking work. *)
    Gc.set { (Gc.get ()) with space_overhead = 80 };
    let nshards = if shards = 0 then Secdb_util.Pool.recommended () else shards in
    let auth_key = Secdb_net.Wire.auth_key_of_master master in
    let cfg = Secdb_net.Server.config ~auth_key ~read_timeout ~max_inflight ~shards:nshards () in
    let dbs = Array.init nshards (shard_db ~master ~profile ~db_seed) in
    let aead = lazy (Secdb_net.Repl.log_aead ~master) in
    let log_rng =
      Secdb_util.Rng.create
        ~seed:
          (match seed with
          | Some s -> s
          | None ->
              Int64.logxor
                (Int64.of_float (Unix.gettimeofday () *. 1e6))
                (Int64.of_int (Unix.getpid () * 0x9e3779b9)))
        ()
    in
    let writer =
      match oplog with
      | None -> None
      | Some path ->
          Some (boot_resume ~aead:(Lazy.force aead) ~nonce:(Secdb_net.Repl.log_nonce ~rng:log_rng) ~path dbs)
    in
    let role =
      match (replica_of, writer) with
      | None, None -> Secdb_net.Server.Standalone
      | None, Some w -> Secdb_net.Server.Primary w
      | Some _, w ->
          Secdb_net.Server.Replica
            { initial_applied = (match w with Some w -> Secdb.Oplog.count w | None -> 0) }
    in
    match Secdb_net.Server.create ?seed ~role ~config:cfg ~db:(fun i -> dbs.(i)) addr with
    | Error e ->
        prerr_endline ("serve: " ^ e);
        exit 1
    | Ok srv ->
        let stopping = ref false in
        let stop _ =
          stopping := true;
          Secdb_net.Server.request_stop srv
        in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf "secdb: listening on %s\n%!"
          (Secdb_net.Wire.addr_to_string (Secdb_net.Server.addr srv));
        let puller =
          match replica_of with
          | None -> None
          | Some primary ->
              Printf.printf "secdb: replicating from %s\n%!"
                (Secdb_net.Wire.addr_to_string primary);
              let applied = ref (match role with
                | Secdb_net.Server.Replica { initial_applied } -> initial_applied
                | _ -> 0)
              in
              let ack () =
                match writer with Some w -> Secdb.Oplog.count w | None -> !applied
              in
              let apply op =
                match Secdb_net.Server.apply_op srv op with
                | Ok () ->
                    incr applied;
                    Ok ()
                | Error _ as e -> e
              in
              let connect () = Secdb_net.Client.connect ~attempts:1 ~auth_key primary in
              Some
                (Thread.create
                   (fun () ->
                     match
                       Secdb_net.Repl.run_replica ~connect ~aead:(Lazy.force aead) ?writer ~ack
                         ~apply
                         ~stop:(fun () -> !stopping)
                         ()
                     with
                     | Ok () -> ()
                     | Error e ->
                         Printf.eprintf "secdb: replication stopped: %s\n%!" e;
                         Secdb_net.Server.request_stop srv)
                   ())
        in
        Secdb_net.Server.run srv;
        stopping := true;
        (match puller with Some th -> Thread.join th | None -> ());
        (match writer with Some w -> Secdb.Oplog.close w | None -> ());
        Printf.printf "secdb: drained, bye\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an encrypted database over the authenticated secdb wire protocol until SIGTERM, \
          then drain. With $(b,--oplog) it is a primary whose history survives restarts and can \
          be shipped to replicas; with $(b,--replica-of) it serves a read-only, continuously \
          caught-up copy.")
    Term.(
      const run $ profile_arg $ master_arg $ net_addr_arg $ seed $ read_timeout $ max_inflight
      $ shards $ oplog $ replica_of $ db_seed_arg)

let restore_cmd =
  let log =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OPLOG" ~doc:"The authenticated operation log to restore from.")
  in
  let to_op =
    Arg.(
      value & opt (some int) None
      & info [ "to-op" ] ~docv:"N"
          ~doc:
            "Point-in-time: rebuild state as of the first N operations of the authenticated \
             prefix (default: all of it).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard count the log's writer served with (routing and ids depend on it).")
  in
  let expect_root =
    Arg.(
      value & opt (some string) None
      & info [ "expect-root" ] ~docv:"HEX"
          ~doc:
            "Fail (exit 1) unless the restored state's Merkle root equals HEX — e.g. a root \
             attested by a replica's repl_root.")
  in
  let stmts =
    Arg.(
      value & opt_all string []
      & info [ "e"; "execute" ] ~docv:"SQL"
          ~doc:"Read-only SQL to run against the restored state; repeatable.")
  in
  let run profile master log to_op shards db_seed expect_root stmts =
    let aead = Secdb_net.Repl.log_aead ~master in
    let mkdb = shard_db ~master ~profile ~db_seed in
    match Secdb_net.Repl.restore ~path:log ~aead ~shards ~mkdb ?to_op () with
    | Error e ->
        prerr_endline ("restore: " ^ e);
        exit 1
    | Ok (dbs, applied) ->
        let root = Xbytes.to_hex (Secdb_net.Repl.root_of_dbs dbs) in
        Printf.printf "restored %d op(s) across %d shard(s)\n" applied shards;
        Printf.printf "merkle root %s\n" root;
        (match expect_root with
        | Some expected when not (String.equal (String.lowercase_ascii expected) root) ->
            Printf.eprintf "restore: root mismatch (expected %s)\n%!" expected;
            exit 1
        | _ -> ());
        let failed = ref false in
        List.iter
          (fun src ->
            match Secdb_sql.Parser.parse src with
            | Error e ->
                Printf.printf "error: %s\n" e;
                failed := true
            | Ok stmt ->
                let table = Secdb_sql.Ast.stmt_table stmt in
                let db = dbs.(Secdb_db.Shard.key_index ~shards table) in
                (match Secdb_sql.Engine.exec db src with
                | Ok o -> Fmt.pr "%a@." Secdb_sql.Engine.pp_result o
                | Error e ->
                    Printf.printf "error: %s\n" e;
                    failed := true))
          stmts;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Point-in-time recovery: authenticate an oplog's longest valid prefix, rebuild the \
          database state it encodes (optionally only its first N operations), print the state's \
          Merkle root, and optionally query it.")
    Term.(
      const run $ profile_arg $ master_arg $ log $ to_op $ shards $ db_seed_arg $ expect_root
      $ stmts)

let client_cmd =
  let stmts =
    Arg.(
      value & opt_all string []
      & info [ "e"; "execute" ] ~docv:"SQL"
          ~doc:"Statement to run; repeat the flag to pipeline several over one connection.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Dump the server-side metric registry.") in
  let root =
    Arg.(
      value & flag
      & info [ "root" ]
          ~doc:
            "Print the node's replication attestation: its applied op count and the Merkle root \
             over its full database state.")
  in
  let tamper =
    Arg.(
      value & flag
      & info [ "tamper" ]
          ~doc:
            "Corrupt the request MAC on the wire (demonstrates the server's structured \
             authentication error).")
  in
  let run master addr stmts stats root tamper =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let auth_key = Secdb_net.Wire.auth_key_of_master master in
    match Secdb_net.Client.connect ~auth_key addr with
    | Error e ->
        prerr_endline ("client: " ^ e);
        exit 1
    | Ok c ->
        Fun.protect ~finally:(fun () -> Secdb_net.Client.close c) @@ fun () ->
        let failed = ref false in
        let render = function
          | Ok (Secdb_net.Wire.Outcome o) -> Fmt.pr "%a@." Secdb_sql.Engine.pp_result o
          | Ok (Secdb_net.Wire.Stats_dump s) -> print_string s
          | Ok (Secdb_net.Wire.Root { applied; root }) ->
              Printf.printf "applied %d\nmerkle root %s\n" applied (Xbytes.to_hex root)
          | Ok _ ->
              print_endline "error [server-error]: unexpected response kind";
              failed := true
          | Error (Secdb_net.Client.Remote (code, msg)) ->
              Printf.printf "error [%s]: %s\n" (Secdb_net.Wire.err_code_to_string code) msg;
              failed := true
          | Error e ->
              print_endline ("error: " ^ Secdb_net.Client.error_to_string e);
              failed := true
        in
        let reqs =
          List.map (fun s -> Secdb_net.Wire.Sql s) stmts
          @ (if stats then [ Secdb_net.Wire.Stats `Text ] else [])
          @ (if root then [ Secdb_net.Wire.Repl_root ] else [])
        in
        if reqs = [] then begin
          prerr_endline "client: nothing to do (use -e SQL, --stats and/or --root)";
          exit 1
        end;
        (* pipelined with a bounded window, so a batch of any size keeps
           its replies draining while it is still being sent *)
        List.iter render (Secdb_net.Client.pipeline ~corrupt:tamper c reqs);
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Run SQL statements (pipelined) against a secdb server over the wire protocol.")
    Term.(const run $ master_arg $ net_addr_arg $ stmts $ stats $ root $ tamper)

let ping_cmd =
  let rtt = Arg.(value & flag & info [ "rtt" ] ~doc:"Also print the round-trip time.") in
  let run master addr rtt =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let auth_key = Secdb_net.Wire.auth_key_of_master master in
    match Secdb_net.Client.connect ~auth_key addr with
    | Error e ->
        prerr_endline ("ping: " ^ e);
        exit 1
    | Ok c -> (
        Fun.protect ~finally:(fun () -> Secdb_net.Client.close c) @@ fun () ->
        match Secdb_net.Client.ping c with
        | Ok dt -> if rtt then Printf.printf "pong (%.3f ms)\n" (dt *. 1e3) else print_endline "pong"
        | Error e ->
            prerr_endline ("ping: " ^ Secdb_net.Client.error_to_string e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Authenticate against a secdb server and round-trip one frame.")
    Term.(const run $ master_arg $ net_addr_arg $ rtt)

let () =
  let doc = "structure-preserving database encryption: the analysed schemes and their AEAD fix" in
  let info = Cmd.info "secdb" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        encrypt_cmd; decrypt_cmd; mu_cmd; digest_cmd; attack_cmd; sql_cmd; stats_cmd; fsck_cmd;
        pgdemo_cmd; profiles_cmd; serve_cmd; restore_cmd; client_cmd; ping_cmd;
      ]
  in
  (* usage errors exit 2, runtime failures exit 1.  Cmdliner reports bad
     option values as [`Parse] but unknown commands/flags as [`Term]; both
     are usage errors here, since every runtime failure in the commands
     above exits 1 explicitly rather than through a term error. *)
  match Cmd.eval_value group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
