(* Cross-cutting property tests: whole-system invariants checked with
   randomly generated workloads across every protection profile. *)

open Secdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module B = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Walker = Secdb_query.Walker
module Rng = Secdb_util.Rng

let qc = Test_seed.qc

let schema =
  Schema.v ~table_name:"t"
    [
      Schema.column ~protection:Schema.Clear "id" Value.Kint;
      Schema.column "k" Value.Kint;
      Schema.column "payload" Value.Ktext;
    ]

(* random operation scripts over Encdb, checked against a simple model *)

type op = Insert of int * string | Update of int * int | Delete of int | Query of int

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 5 60)
      (oneof
         [
           map2 (fun k s -> Insert (k, s)) (int_bound 20) (string_size (int_range 0 30));
           map2 (fun i k -> Update (i, k)) (int_bound 100) (int_bound 20);
           map (fun i -> Delete i) (int_bound 100);
           map (fun k -> Query k) (int_bound 20);
         ]))

let run_script profile ops =
  let db = Encdb.create ~master:"prop master" ~profile () in
  Encdb.create_table db schema;
  Encdb.create_index db ~table:"t" ~col:"k";
  (* model: row -> (k, payload) for live rows *)
  let model : (int, int * string) Hashtbl.t = Hashtbl.create 32 in
  let next_row = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Insert (k, s) ->
          (* text values must be NUL-free for the XOR profile's redundancy rule *)
          let s = String.map (fun c -> if c = '\000' then '.' else c) s in
          let row =
            Encdb.insert db ~table:"t"
              [ Value.Int (Int64.of_int !next_row); Value.Int (Int64.of_int k); Value.Text s ]
          in
          if row <> !next_row then ok := false;
          Hashtbl.replace model row (k, s);
          incr next_row
      | Update (i, k) ->
          if Hashtbl.mem model (i mod max 1 !next_row) then begin
            let row = i mod max 1 !next_row in
            match Encdb.update db ~table:"t" ~row ~col:"k" (Value.Int (Int64.of_int k)) with
            | Ok () ->
                let _, s = Hashtbl.find model row in
                Hashtbl.replace model row (k, s)
            | Error _ -> ok := false
          end
      | Delete i ->
          if !next_row > 0 then begin
            let row = i mod !next_row in
            if Hashtbl.mem model row then begin
              match Encdb.delete_row db ~table:"t" ~row with
              | Ok () -> Hashtbl.remove model row
              | Error _ -> ok := false
            end
          end
      | Query k -> (
          let expected =
            Hashtbl.fold (fun row (k', _) acc -> if k' = k then row :: acc else acc) model []
            |> List.sort compare
          in
          match Encdb.select_eq db ~table:"t" ~col:"k" (Value.Int (Int64.of_int k)) with
          | Ok rows ->
              if List.sort compare (List.map fst rows) <> expected then ok := false
          | Error _ -> ok := false))
    ops;
  (* final invariants: index validates; full scan agrees with the model *)
  (match B.validate (Encdb.index db ~table:"t" ~col:"k") with
  | Ok () -> ()
  | Error _ -> ok := false);
  let tbl = Encdb.table db "t" in
  Hashtbl.iter
    (fun row (k, s) ->
      match (Etable.get tbl ~row ~col:1, Etable.get tbl ~row ~col:2) with
      | Ok (Value.Int k'), Ok (Value.Text s') ->
          if Int64.to_int k' <> k || s' <> s then ok := false
      | _ -> ok := false)
    model;
  !ok

let prop_script profile =
  QCheck2.Test.make
    ~name:("script equivalence: " ^ Encdb.profile_name profile)
    ~count:(match profile with Encdb.Fixed _ -> 15 | _ -> 15)
    gen_ops
    (fun ops -> run_script profile ops)

(* storage roundtrip under random content *)

let prop_storage_roundtrip =
  QCheck2.Test.make ~name:"storage roundtrip of random tables" ~count:25
    QCheck2.Gen.(list_size (int_range 0 40) (pair small_int (string_size (int_range 0 40))))
    (fun rows ->
      let scheme =
        Secdb_schemes.Fixed_cell.make
          ~aead:(Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'K')))
          ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
          ()
      in
      let t = Etable.create ~id:3 schema ~scheme:(fun _ -> scheme) in
      List.iteri
        (fun i (k, s) ->
          ignore
            (Etable.insert t
               [ Value.Int (Int64.of_int i); Value.Int (Int64.of_int k); Value.Text s ]))
        rows;
      (* tombstone every third row *)
      List.iteri (fun i _ -> if i mod 3 = 2 then Etable.delete_row t ~row:i) rows;
      match
        Secdb_storage.Storage.decode_table
          ~scheme:(fun _ -> scheme)
          (Secdb_storage.Storage.encode_table t)
      with
      | Error _ -> false
      | Ok t' ->
          Etable.nrows t' = Etable.nrows t
          && List.for_all
               (fun row ->
                 Etable.is_live t' ~row = Etable.is_live t ~row
                 && ((not (Etable.is_live t ~row))
                    || Etable.get t' ~row ~col:2 = Etable.get t ~row ~col:2))
               (List.init (Etable.nrows t) Fun.id))

(* walker equivalence with the tree on random data *)

let prop_walker_equivalence =
  QCheck2.Test.make ~name:"walker = Bptree.range on random trees" ~count:40
    QCheck2.Gen.(pair (list_size (int_range 0 150) (int_bound 30)) (pair (int_bound 30) (int_bound 30)))
    (fun (keys, (lo, hi)) ->
      let codec =
        Secdb_schemes.Index12.codec
          ~e:(Secdb_schemes.Einst.cbc_zero_iv (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'k')))
          ~mac_cipher:(Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'k'))
          ~rng:(Rng.create ~seed:9L ()) ~indexed_table:1 ~indexed_col:0 ()
      in
      let tree = B.create ~order:4 ~id:1000 ~codec () in
      List.iteri (fun i k -> B.insert tree (Value.Int (Int64.of_int k)) ~table_row:i) keys;
      let lo = Value.Int (Int64.of_int (min lo hi)) and hi = Value.Int (Int64.of_int (max lo hi)) in
      let expected = B.range tree ~lo ~hi () in
      List.for_all
        (fun mode ->
          match Walker.range tree ~mode ~lo ~hi () with
          | Ok a -> a.Walker.results = expected
          | Error _ -> false)
        [ Walker.Published; Walker.Corrected ])

(* the disk decoders are total: random bytes, and every truncation and
   single-byte flip of a valid value, schema, table and index encoding,
   decode to [Ok] or [Error] — never an exception *)

let prop_disk_decoders_total =
  let module St = Secdb_storage.Storage in
  let scheme =
    Secdb_schemes.Fixed_cell.make
      ~aead:(Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'K')))
      ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
      ()
  in
  let decoders =
    [
      ("Value.decode", fun s -> Result.is_ok (Value.decode s));
      ("Storage.decode_schema", fun s -> Result.is_ok (St.decode_schema s));
      ("Storage.decode_table", fun s -> Result.is_ok (St.decode_table ~scheme:(fun _ -> scheme) s));
      ("Storage.decode_index", fun s -> Result.is_ok (St.decode_index ~codec:B.plain_codec s));
    ]
  in
  let total s =
    List.for_all
      (fun (name, decode) ->
        match decode s with
        | _ -> true
        | exception e ->
            QCheck2.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) s)
      decoders
  in
  let mutations ~mask e =
    List.init (String.length e) (fun n -> String.sub e 0 n)
    @ List.init (String.length e) (fun i ->
          String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c) e)
  in
  QCheck2.Test.make ~name:"disk decoders are total" ~count:30
    QCheck2.Gen.(
      quad
        (string_size (int_range 0 64))
        (list_size (int_range 0 6) (pair small_int (string_size (int_range 0 12))))
        (list_size (int_range 0 40) (int_bound 15))
        (int_range 1 255))
    (fun (noise, rows, keys, mask) ->
      let t = Etable.create ~id:3 schema ~scheme:(fun _ -> scheme) in
      List.iteri
        (fun i (k, s) ->
          ignore
            (Etable.insert t
               [ Value.Int (Int64.of_int i); Value.Int (Int64.of_int k); Value.Text s ]))
        rows;
      if rows <> [] then Etable.delete_row t ~row:0;
      let tree = B.create ~order:4 ~id:5 ~codec:B.plain_codec () in
      List.iteri (fun i k -> B.insert tree (Value.Int (Int64.of_int k)) ~table_row:i) keys;
      let valid =
        [
          Value.encode (Value.Int (Int64.of_int mask));
          Value.encode (Value.Text noise);
          St.encode_schema schema;
          St.encode_table t;
          St.encode_index tree;
        ]
      in
      total noise && List.for_all (fun e -> List.for_all total (mutations ~mask e)) valid)

let suites =
  [
    ( "props:encdb-scripts",
      List.map prop_script
        [
          Encdb.Elovici_append;
          Encdb.Elovici_xor;
          Encdb.Shmueli_improved;
          Encdb.Fixed Encdb.Eax;
          Encdb.Fixed Encdb.Ccfb;
          Encdb.Fixed Encdb.Gcm;
          Encdb.Fixed Encdb.Siv;
          Encdb.Siv_deterministic;
        ]
      |> List.map qc );
    ( "props:cross-component",
      [ qc prop_storage_roundtrip; qc prop_walker_equivalence; qc prop_disk_decoders_total ] );
  ]
