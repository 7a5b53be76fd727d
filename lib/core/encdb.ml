open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Address = Secdb_db.Address
module Bptree = Secdb_index.Bptree
module Etable = Secdb_query.Encrypted_table
module Walker = Secdb_query.Walker
module Einst = Secdb_schemes.Einst

type fixed_aead = Eax | Ocb | Ccfb | Etm | Gcm | Siv

type profile =
  | Elovici_append
  | Elovici_xor
  | Shmueli_improved
  | Shmueli_repaired_keys
  | Fixed of fixed_aead
  | Siv_deterministic

let fixed_aead_name = function
  | Eax -> "eax"
  | Ocb -> "ocb"
  | Ccfb -> "ccfb"
  | Etm -> "etm"
  | Gcm -> "gcm"
  | Siv -> "siv"

let profile_name = function
  | Elovici_append -> "elovici-append"
  | Elovici_xor -> "elovici-xor"
  | Shmueli_improved -> "shmueli-improved"
  | Shmueli_repaired_keys -> "shmueli-repaired-keys"
  | Fixed a -> "fixed-" ^ fixed_aead_name a
  | Siv_deterministic -> "siv-deterministic"

let all_profiles =
  [
    Elovici_append;
    Elovici_xor;
    Shmueli_improved;
    Shmueli_repaired_keys;
    Fixed Eax;
    Fixed Ocb;
    Fixed Ccfb;
    Fixed Etm;
    Fixed Gcm;
    Fixed Siv;
    Siv_deterministic;
  ]

module Rtree = Secdb_index.Range_tree
module Metrics = Secdb_obs.Metrics
module Obs = Secdb_obs.Obs

type change =
  | Created_table of Schema.t
  | Created_index of { table : string; col : string }
  | Created_range_index of { table : string; col : string; buckets : int }
  | Inserted of { table : string; row : int; values : Value.t list }
  | Updated of { table : string; row : int; col : string; value : Value.t }
  | Deleted of { table : string; row : int }

type t = {
  profile : profile;
  keyring : Keyring.t;
  order : int;
  rng : Rng.t;
  mu : Address.mu;
  tables : (string, Etable.t) Hashtbl.t;
  indexes : (string * string, Bptree.t) Hashtbl.t;
  range_indexes : (string * string, Rtree.t) Hashtbl.t;
  index_hists : (string * string, Secdb_query.Histogram.t) Hashtbl.t;
  row_counts : (string, int ref) Hashtbl.t;
      (* live rows per table — the planner's cardinality input, mirrored
         into the [db.rows{table}] gauge so `secdb stats` shows exactly
         what the cost model saw *)
  mutable on_change : (change -> unit) option;
  mutable next_table_id : int;
  mutable next_index_id : int;
}

let create ?(seed = 1L) ?(order = 4) ?(first_table_id = 1)
    ?(first_index_id = 1000) ~master ~profile () =
  {
    profile;
    keyring = Keyring.open_session ~master;
    order;
    rng = Rng.create ~seed ();
    mu = Address.mu_sha1 ~width:16;
    tables = Hashtbl.create 8;
    indexes = Hashtbl.create 8;
    range_indexes = Hashtbl.create 8;
    index_hists = Hashtbl.create 8;
    row_counts = Hashtbl.create 8;
    on_change = None;
    next_table_id = first_table_id;
    next_index_id = first_index_id;
  }

let set_on_change t f = t.on_change <- f
let notify t c = match t.on_change with Some f -> f c | None -> ()

let profile t = t.profile
let keyring t = t.keyring

let close t = Keyring.close_session t.keyring

(* The derived keys live inside scheme closures; ending the session models
   their secure removal, so every data operation checks the session first. *)
let ensure_open t = if not (Keyring.is_open t.keyring) then raise Keyring.Session_closed

(* --- per-table row statistics --------------------------------------------- *)

let publish_rows name n =
  if Obs.on () then Metrics.set (Metrics.gauge ~labels:[ ("table", name) ] "db.rows") n

let set_row_count t name n =
  (match Hashtbl.find_opt t.row_counts name with
  | Some r -> r := n
  | None -> Hashtbl.replace t.row_counts name (ref n));
  publish_rows name n

let bump_row_count t name delta =
  let r =
    match Hashtbl.find_opt t.row_counts name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.row_counts name r;
        r
  in
  r := !r + delta;
  publish_rows name !r

(* loading and rotation build tables below the [insert] hook; recount *)
let recount_rows t name tbl =
  let live = ref 0 in
  for row = 0 to Etable.nrows tbl - 1 do
    if Etable.is_live tbl ~row then incr live
  done;
  set_row_count t name !live

let live_rows t ~table:name =
  match Hashtbl.find_opt t.row_counts name with Some r -> !r | None -> 0

(* the table-driven AES: same permutation as Secdb_cipher.Aes (tested), ~10x faster *)
let aes key = Secdb_cipher.Aes_fast.cipher ~key

let make_aead which ~key ~mac_key =
  match which with
  | Eax -> Secdb_aead.Eax.make (aes key)
  | Ocb -> Secdb_aead.Ocb.make (aes key)
  | Ccfb -> Secdb_aead.Ccfb.make (aes key)
  | Etm -> Secdb_aead.Compose.encrypt_then_mac ~cipher:(aes key) ~mac_key ()
  | Gcm -> Secdb_aead.Gcm.make (aes key)
  | Siv -> Secdb_aead.Siv.make (aes mac_key) (aes key)

let cell_scheme t ~table_id ~schema col =
  let key = Keyring.cell_key t.keyring ~table:table_id ~col in
  let e = Einst.cbc_zero_iv (aes key) in
  let append () = Secdb_schemes.Cell_append.make ~e ~mu:t.mu in
  match t.profile with
  | Elovici_append | Shmueli_improved | Shmueli_repaired_keys -> append ()
  | Elovici_xor ->
      (* the analysed scheme's own rule: the XOR form only where the data
         type carries enough redundancy — here, text columns whose encoding
         always reaches one cipher block; everything else falls back to the
         Append-Scheme (paper Sect. 2.2) *)
      if (Schema.col schema col).Schema.ty = Value.Ktext then
        Secdb_schemes.Cell_xor.make ~e ~mu:t.mu ~strip_zero_extension:true
          ~validate:(fun s ->
            match Value.decode s with
            | Ok (Value.Text v) -> not (String.contains v '\000')
            | Ok _ | Error _ -> false)
          ()
      else append ()
  | Fixed which ->
      let mac_key = Keyring.mac_key t.keyring ~table:table_id ~col in
      let aead = make_aead which ~key ~mac_key in
      let nonce = Secdb_aead.Nonce.of_rng t.rng ~size:aead.Secdb_aead.Aead.nonce_size in
      Secdb_schemes.Fixed_cell.make ~aead ~nonce ()
  | Siv_deterministic ->
      let mac_key = Keyring.mac_key t.keyring ~table:table_id ~col in
      let aead = make_aead Siv ~key ~mac_key in
      (* constant nonce + column-scoped associated data: deterministic
         authenticated encryption, searchable by exact equality; the
         deliberate trade is that within-column relocation is not caught at
         the cell layer (see Fixed_cell.make) *)
      Secdb_schemes.Fixed_cell.make
        ~ad_of:(fun addr ->
          Secdb_util.Xbytes.int_to_be_string ~width:8 addr.Address.table
          ^ Secdb_util.Xbytes.int_to_be_string ~width:8 addr.Address.col)
        ~aead
        ~nonce:(Secdb_aead.Nonce.fixed (String.make 16 '\000'))
        ()

let index_codec t ~table_id ~col_id =
  let key = Keyring.index_key t.keyring ~table:table_id ~col:col_id in
  let e = Einst.cbc_zero_iv (aes key) in
  match t.profile with
  | Elovici_append | Elovici_xor -> Secdb_schemes.Index3.codec ~e
  | Shmueli_improved ->
      Secdb_schemes.Index12.codec ~e ~mac_cipher:(aes key) ~rng:t.rng ~indexed_table:table_id
        ~indexed_col:col_id ()
  | Shmueli_repaired_keys ->
      let mac_key = Keyring.mac_key t.keyring ~table:table_id ~col:col_id in
      Secdb_schemes.Index12.codec ~e ~mac_cipher:(aes mac_key) ~rng:t.rng
        ~indexed_table:table_id ~indexed_col:col_id ()
  | Fixed which ->
      let mac_key = Keyring.mac_key t.keyring ~table:table_id ~col:col_id in
      let aead = make_aead which ~key ~mac_key in
      let nonce = Secdb_aead.Nonce.of_rng t.rng ~size:aead.Secdb_aead.Aead.nonce_size in
      Secdb_schemes.Fixed_index.codec ~aead ~nonce ~indexed_table:table_id
        ~indexed_col:col_id ()
  | Siv_deterministic ->
      let mac_key = Keyring.mac_key t.keyring ~table:table_id ~col:col_id in
      let aead = make_aead Siv ~key ~mac_key in
      Secdb_schemes.Fixed_index.codec ~aead
        ~nonce:(Secdb_aead.Nonce.fixed (String.make 16 '\000'))
        ~indexed_table:table_id ~indexed_col:col_id ()

let create_table t schema =
  ensure_open t;
  let name = schema.Schema.table_name in
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Encdb.create_table: table %s already exists" name);
  let id = t.next_table_id in
  t.next_table_id <- id + 1;
  Hashtbl.add t.tables name
    (Etable.create ~id schema ~scheme:(cell_scheme t ~table_id:id ~schema));
  set_row_count t name 0;
  notify t (Created_table schema)

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> raise Not_found

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [])

let indexes_on t name =
  Hashtbl.fold
    (fun (tbl, col) tree acc -> if tbl = name then (col, tree) :: acc else acc)
    t.indexes []

let create_index t ~table:name ~col =
  ensure_open t;
  let tbl = table t name in
  let schema = Etable.schema tbl in
  let col_id = Schema.col_index schema col in
  if Hashtbl.mem t.indexes (name, col) then
    invalid_arg (Printf.sprintf "Encdb.create_index: index on %s.%s already exists" name col);
  (* decrypt once, sort in the clear, bulk-load: one payload encoding per
     entry instead of O(log n) decodes per incremental insert (EXP19) *)
  let entries = ref [] in
  for row = Etable.nrows tbl - 1 downto 0 do
    if Etable.is_live tbl ~row then
      entries := (Etable.get_exn tbl ~row ~col:col_id, row) :: !entries
  done;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Value.compare a b) !entries in
  let tree_id = t.next_index_id in
  t.next_index_id <- tree_id + 1;
  let codec = index_codec t ~table_id:(Etable.id tbl) ~col_id in
  let tree = Bptree.bulk_load ~order:t.order ~id:tree_id ~codec sorted in
  let hist = Secdb_query.Histogram.of_values (List.map fst sorted) in
  Hashtbl.replace t.index_hists (name, col) hist;
  Hashtbl.add t.indexes (name, col) tree;
  notify t (Created_index { table = name; col })

let has_index t ~table:name ~col = Hashtbl.mem t.indexes (name, col)

(* --- bucketized range indexes -------------------------------------------- *)

(* The ESEDS-style structure seals every entry under its own AEAD cell
   with the (tree id, sequence, bucket) triple as the authenticated
   address, so relocating an entry — the rank-shifting attack — fails to
   decrypt.  Keys are derived per index, independent of the cell and
   per-entry index keys; legacy profiles (which predate AEAD) get EAX. *)
let range_sealer t ~table_id ~col_id ~tree_id =
  let key =
    Keyring.derive t.keyring ~label:(Printf.sprintf "rix-key:%d:%d" table_id col_id) ~length:16
  in
  let mac_key =
    Keyring.derive t.keyring ~label:(Printf.sprintf "rix-mac:%d:%d" table_id col_id) ~length:16
  in
  let which = match t.profile with Fixed w -> w | _ -> Eax in
  let aead = make_aead which ~key ~mac_key in
  let nonce = Secdb_aead.Nonce.of_rng t.rng ~size:aead.Secdb_aead.Aead.nonce_size in
  let scheme = Secdb_schemes.Fixed_cell.make ~aead ~nonce () in
  let addr ~seq ~bucket = Address.v ~table:tree_id ~row:seq ~col:bucket in
  {
    Rtree.sealer_name = scheme.Secdb_schemes.Cell_scheme.name;
    seal = (fun ~seq ~bucket p -> scheme.Secdb_schemes.Cell_scheme.encrypt (addr ~seq ~bucket) p);
    unseal =
      (fun ~seq ~bucket c -> scheme.Secdb_schemes.Cell_scheme.decrypt (addr ~seq ~bucket) c);
  }

let range_indexes_on t name =
  Hashtbl.fold
    (fun (tbl, col) tree acc -> if tbl = name then (col, tree) :: acc else acc)
    t.range_indexes []

let has_range_index t ~table:name ~col = Hashtbl.mem t.range_indexes (name, col)

let range_index_nbuckets t ~table:name ~col =
  Option.map Rtree.nbuckets (Hashtbl.find_opt t.range_indexes (name, col))

let range_index t ~table:name ~col =
  match Hashtbl.find_opt t.range_indexes (name, col) with
  | Some tree -> tree
  | None -> raise Not_found

let create_range_index t ~table:name ~col ?(buckets = 16) () =
  ensure_open t;
  let tbl = table t name in
  let schema = Etable.schema tbl in
  let col_id = Schema.col_index schema col in
  if Hashtbl.mem t.range_indexes (name, col) then
    invalid_arg
      (Printf.sprintf "Encdb.create_range_index: range index on %s.%s already exists" name col);
  if buckets < 1 then invalid_arg "Encdb.create_range_index: buckets must be >= 1";
  (* decrypt the column once; boundaries come from the data's quantiles so
     buckets stay balanced under skew (the leakage is the boundaries plus
     the per-bucket histogram, see DESIGN.md Sect. 13) *)
  let entries = ref [] in
  for row = Etable.nrows tbl - 1 downto 0 do
    if Etable.is_live tbl ~row then
      entries := (Etable.get_exn tbl ~row ~col:col_id, row) :: !entries
  done;
  let boundaries = Rtree.quantile_boundaries ~buckets (List.map fst !entries) in
  let tree_id = t.next_index_id in
  t.next_index_id <- tree_id + 1;
  let sealer = range_sealer t ~table_id:(Etable.id tbl) ~col_id ~tree_id in
  let tree = Rtree.create ~id:tree_id ~sealer ~boundaries () in
  List.iter (fun (v, row) -> Rtree.insert tree v ~table_row:row) !entries;
  if not (Hashtbl.mem t.index_hists (name, col)) then
    Hashtbl.replace t.index_hists (name, col)
      (Secdb_query.Histogram.of_values (List.map fst !entries));
  Hashtbl.add t.range_indexes (name, col) tree;
  notify t (Created_range_index { table = name; col; buckets })

let index t ~table:name ~col = Hashtbl.find t.indexes (name, col)

let index_selectivity t ~table:name ~col ~lo ~hi =
  Option.map
    (fun h -> Secdb_query.Histogram.selectivity h ~lo ~hi)
    (Hashtbl.find_opt t.index_hists (name, col))

let hist_add t name col v =
  match Hashtbl.find_opt t.index_hists (name, col) with
  | Some h -> Secdb_query.Histogram.add h v
  | None -> ()

let hist_remove t name col v =
  match Hashtbl.find_opt t.index_hists (name, col) with
  | Some h -> Secdb_query.Histogram.remove h v
  | None -> ()

let insert t ~table:name values =
  ensure_open t;
  let tbl = table t name in
  let row = Etable.insert tbl values in
  List.iter
    (fun (col, tree) ->
      let col_id = Schema.col_index (Etable.schema tbl) col in
      let v = List.nth values col_id in
      hist_add t name col v;
      Bptree.insert tree v ~table_row:row)
    (indexes_on t name);
  List.iter
    (fun (col, rtree) ->
      let col_id = Schema.col_index (Etable.schema tbl) col in
      let v = List.nth values col_id in
      (* the histogram is shared per column; the exact index already fed it *)
      if not (Hashtbl.mem t.indexes (name, col)) then hist_add t name col v;
      Rtree.insert rtree v ~table_row:row)
    (range_indexes_on t name);
  bump_row_count t name 1;
  notify t (Inserted { table = name; row; values });
  row

let update t ~table:name ~row ~col value =
  ensure_open t;
  let tbl = table t name in
  let col_id = Schema.col_index (Etable.schema tbl) col in
  match Etable.get tbl ~row ~col:col_id with
  | Error e -> Error e
  | Ok old_value ->
      Etable.update tbl ~row ~col:col_id value;
      (match Hashtbl.find_opt t.indexes (name, col) with
      | Some tree ->
          ignore (Bptree.delete tree old_value ~table_row:row);
          Bptree.insert tree value ~table_row:row;
          hist_remove t name col old_value;
          hist_add t name col value
      | None -> ());
      (match Hashtbl.find_opt t.range_indexes (name, col) with
      | Some rtree ->
          ignore (Rtree.delete rtree old_value ~table_row:row);
          Rtree.insert rtree value ~table_row:row;
          if not (Hashtbl.mem t.indexes (name, col)) then begin
            hist_remove t name col old_value;
            hist_add t name col value
          end
      | None -> ());
      notify t (Updated { table = name; row; col; value });
      Ok ()

let delete_row t ~table:name ~row =
  ensure_open t;
  let tbl = table t name in
  let schema = Etable.schema tbl in
  (* collect the indexed values before tombstoning *)
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (col, tree) :: rest -> (
        let col_id = Schema.col_index schema col in
        match Etable.get tbl ~row ~col:col_id with
        | Ok v -> collect (((col, tree), v) :: acc) rest
        | Error e -> Error e)
  in
  let collect_range acc =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (col, rtree) :: rest -> (
          let col_id = Schema.col_index schema col in
          match Etable.get tbl ~row ~col:col_id with
          | Ok v -> go (((col, rtree), v) :: acc) rest
          | Error e -> Error e)
    in
    go acc (range_indexes_on t name)
  in
  match (collect [] (indexes_on t name), collect_range []) with
  | Error e, _ | _, Error e -> Error e
  | Ok entries, Ok range_entries ->
      Etable.delete_row tbl ~row;
      List.iter
        (fun ((col, tree), v) ->
          ignore (Bptree.delete tree v ~table_row:row);
          hist_remove t name col v)
        entries;
      List.iter
        (fun ((col, rtree), v) ->
          ignore (Rtree.delete rtree v ~table_row:row);
          if not (Hashtbl.mem t.indexes (name, col)) then hist_remove t name col v)
        range_entries;
      bump_row_count t name (-1);
      notify t (Deleted { table = name; row });
      Ok ()

(* --- paged persistence ---------------------------------------------------- *)

let save_paged t ~path ?(page_size = 4096) ?vfs () =
  ensure_open t;
  let tables = Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) t.tables [] in
  let indexes = Hashtbl.fold (fun key tree acc -> (key, tree) :: acc) t.indexes [] in
  let be8 = Secdb_util.Xbytes.int_to_be_string ~width:8 in
  let pager = Secdb_storage.Pager.create ~path ~page_size ?vfs () in
  (* page 1, allocated first by construction, points at the directory blob *)
  let pointer_page = Secdb_storage.Pager.alloc pager in
  let blobs = Secdb_storage.Blob_store.attach pager in
  let entries =
    List.map
      (fun (name, tbl) ->
        let id = Secdb_storage.Blob_store.store blobs (Secdb_storage.Storage.encode_table tbl) in
        Secdb_db.Codec.frame [ "T"; name; ""; be8 id ])
      tables
    @ List.map
        (fun ((name, col), tree) ->
          let id =
            Secdb_storage.Blob_store.store blobs (Secdb_storage.Storage.encode_index tree)
          in
          Secdb_db.Codec.frame [ "I"; name; col; be8 id ])
        indexes
  in
  let directory =
    Secdb_db.Codec.frame
      (Secdb_storage.Storage.magic :: "paged-directory" :: profile_name t.profile :: entries)
  in
  let dir_id = Secdb_storage.Blob_store.store blobs directory in
  Secdb_storage.Pager.write pager pointer_page (be8 dir_id);
  Secdb_storage.Pager.close pager

let load_paged ?(seed = 3L) ?(order = 4) ?(cache_pages = 64) ?vfs ~master ~profile ~path () =
  let ( let* ) = Result.bind in
  let* pager = Secdb_storage.Pager.open_file ~path ~cache_pages ?vfs () in
  let blobs = Secdb_storage.Blob_store.attach pager in
  let blob_load id =
    Result.map_error Secdb_storage.Blob_store.chain_error_to_string
      (Secdb_storage.Blob_store.load blobs id)
  in
  let finish r =
    Secdb_storage.Pager.close pager;
    r
  in
  let dir_id = Secdb_util.Xbytes.be_string_to_int (String.sub (Secdb_storage.Pager.read pager 1) 0 8) in
  let* directory = blob_load dir_id in
  let* fields = Secdb_db.Codec.unframe directory in
  match fields with
  | m :: section :: prof :: entries ->
      if m <> Secdb_storage.Storage.magic then finish (Error "load_paged: bad magic")
      else if section <> "paged-directory" then finish (Error "load_paged: not a paged database")
      else if prof <> profile_name profile then
        finish
          (Error
             (Printf.sprintf "load_paged: database was saved under profile %s, not %s" prof
                (profile_name profile)))
      else begin
        let t = create ~seed ~order ~master ~profile () in
        let result =
          List.fold_left
            (fun acc entry ->
              let* () = acc in
              let* parts = Secdb_db.Codec.unframe entry in
              match parts with
              | [ "T"; name; _; id ] ->
                  let* data = blob_load (Secdb_util.Xbytes.be_string_to_int id) in
                  let* table_id, schema = Secdb_storage.Storage.peek_table data in
                  let* tbl =
                    Secdb_storage.Storage.decode_table ~scheme:(cell_scheme t ~table_id ~schema)
                      data
                  in
                  Hashtbl.add t.tables name tbl;
                  recount_rows t name tbl;
                  if table_id >= t.next_table_id then t.next_table_id <- table_id + 1;
                  Ok ()
              | [ "I"; name; col; id ] ->
                  let* tbl =
                    match Hashtbl.find_opt t.tables name with
                    | Some tbl -> Ok tbl
                    | None -> Error (Printf.sprintf "load_paged: index for unknown table %s" name)
                  in
                  let* col_id =
                    match Schema.col_index (Etable.schema tbl) col with
                    | c -> Ok c
                    | exception Not_found ->
                        Error (Printf.sprintf "load_paged: unknown column %s.%s" name col)
                  in
                  let codec = index_codec t ~table_id:(Etable.id tbl) ~col_id in
                  let* data = blob_load (Secdb_util.Xbytes.be_string_to_int id) in
                  let* tree = Secdb_storage.Storage.decode_index ~codec data in
                  let hist =
                    try
                      Secdb_query.Histogram.of_values (List.map fst (Bptree.range tree ()))
                    with Secdb_index.Bptree.Integrity _ -> Secdb_query.Histogram.create ()
                  in
                  Hashtbl.replace t.index_hists (name, col) hist;
                  Hashtbl.add t.indexes (name, col) tree;
                  if Secdb_index.Bptree.id tree >= t.next_index_id then
                    t.next_index_id <- Secdb_index.Bptree.id tree + 1;
                  Ok ()
              | _ -> Error "load_paged: malformed directory entry")
            (Ok ()) entries
        in
        finish (Result.map (fun () -> t) result)
      end
  | _ -> finish (Error "load_paged: malformed directory")

let digest t =
  let tables =
    Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) t.tables []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let indexes =
    Hashtbl.fold (fun key tree acc -> (key, tree) :: acc) t.indexes []
    |> List.sort (fun ((a, b), _) ((c, d), _) -> compare (a, b) (c, d))
  in
  let artefact_roots =
    List.map
      (fun (name, tbl) ->
        "T" ^ name ^ Secdb_storage.Merkle.root (Secdb_storage.Storage.table_leaves tbl))
      tables
    @ List.map
        (fun ((name, col), tree) ->
          "I" ^ name ^ "." ^ col
          ^ Secdb_storage.Merkle.root (Secdb_storage.Storage.index_leaves tree))
        indexes
  in
  Secdb_storage.Merkle.root artefact_roots

let rotate_master t ~new_master =
  ensure_open t;
  let fresh =
    create
      ~seed:(Int64.add 1L (Rng.next64 t.rng))
      ~order:t.order ~master:new_master ~profile:t.profile ()
  in
  (* tables: decrypt every live row under the old keys, re-encrypt under
     the new; tombstones and row numbers are preserved *)
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] in
  List.iter
    (fun name ->
      let tbl = table t name in
      let schema = Etable.schema tbl in
      create_table fresh schema;
      let new_tbl = table fresh name in
      for row = 0 to Etable.nrows tbl - 1 do
        if Etable.is_live tbl ~row then begin
          let values =
            List.init (Schema.ncols schema) (fun col -> Etable.get_exn tbl ~row ~col)
          in
          ignore (Etable.insert new_tbl values)
        end
        else begin
          (* keep row numbering aligned: insert then tombstone *)
          let placeholder =
            List.init (Schema.ncols schema) (fun _ -> Value.Null)
          in
          let r = Etable.insert new_tbl placeholder in
          Etable.delete_row new_tbl ~row:r
        end
      done;
      recount_rows fresh name new_tbl)
    names;
  (* indexes: rebuilt from the re-encrypted tables *)
  Hashtbl.iter (fun (name, col) _ -> create_index fresh ~table:name ~col) t.indexes;
  Hashtbl.iter
    (fun (name, col) rtree ->
      create_range_index fresh ~table:name ~col ~buckets:(Rtree.nbuckets rtree) ())
    t.range_indexes;
  close t;
  fresh

let fetch_rows tbl rows =
  let schema = Etable.schema tbl in
  let ncols = Schema.ncols schema in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | row :: rest -> (
        let values = Array.make ncols Value.Null in
        let rec cols c =
          if c >= ncols then Ok ()
          else
            match Etable.get tbl ~row ~col:c with
            | Ok v ->
                values.(c) <- v;
                cols (c + 1)
            | Error e -> Error (Printf.sprintf "row %d: %s" row e)
        in
        match cols 0 with
        | Ok () -> loop ((row, values) :: acc) rest
        | Error e -> Error e)
  in
  loop [] rows

let select_range t ~table:name ~col ?(mode = Walker.Corrected) ?lo ?hi () =
  ensure_open t;
  let tbl = table t name in
  match Hashtbl.find_opt t.indexes (name, col) with
  | Some tree -> (
      match Walker.range tree ~mode ?lo ?hi () with
      | Error e -> Error e
      | Ok answer -> fetch_rows tbl (List.map snd answer.Walker.results))
  | None -> Error (Printf.sprintf "no index on %s.%s" name col)

let select_range_bucketed t ~table:name ~col ?lo ?hi () =
  ensure_open t;
  let tbl = table t name in
  match Hashtbl.find_opt t.range_indexes (name, col) with
  | None -> Error (Printf.sprintf "no range index on %s.%s" name col)
  | Some rtree -> (
      (* bucket overlap then exact in-tree filter; rows come back ascending,
         the same visible order as a full scan, so the planner may swap one
         for the other without changing result bytes *)
      match Rtree.query rtree ?lo ?hi () with
      | entries -> fetch_rows tbl (List.map snd entries)
      | exception Rtree.Integrity e -> Error e)

let select_eq t ~table:name ~col ?(mode = Walker.Corrected) probe =
  ensure_open t;
  let tbl = table t name in
  match Hashtbl.find_opt t.indexes (name, col) with
  | Some _ -> select_range t ~table:name ~col ~mode ~lo:probe ~hi:probe ()
  | None -> (
      (* decrypting full scan *)
      let col_id = Schema.col_index (Etable.schema tbl) col in
      match Etable.select_result tbl (fun values -> Value.equal values.(col_id) probe) with
      | Ok rows -> Ok rows
      | Error e -> Error e)

(* --- persistence -------------------------------------------------------- *)

let manifest_name = "secdb.manifest"

let save t ~dir =
  ensure_open t;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tables = Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) t.tables [] in
  let indexes = Hashtbl.fold (fun key tree acc -> (key, tree) :: acc) t.indexes [] in
  let manifest =
    Secdb_db.Codec.frame
      (Secdb_storage.Storage.magic :: "manifest" :: profile_name t.profile
      :: Secdb_db.Codec.frame (List.map fst tables)
      :: List.map (fun ((tbl, col), _) -> Secdb_db.Codec.frame [ tbl; col ]) indexes)
  in
  let out path data =
    let oc = open_out_bin (Filename.concat dir path) in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)
  in
  out manifest_name manifest;
  List.iter
    (fun (name, tbl) ->
      Secdb_storage.Storage.save_table ~path:(Filename.concat dir (name ^ ".table")) tbl)
    tables;
  List.iter
    (fun ((tbl, col), tree) ->
      Secdb_storage.Storage.save_index
        ~path:(Filename.concat dir (Printf.sprintf "%s.%s.index" tbl col))
        tree)
    indexes

let load ?(seed = 2L) ?(order = 4) ~master ~profile ~dir () =
  let ( let* ) = Result.bind in
  let read path =
    let full = Filename.concat dir path in
    if not (Sys.file_exists full) then Error (Printf.sprintf "load: missing file %s" full)
    else
      let ic = open_in_bin full in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  in
  let* manifest = read manifest_name in
  let* fields = Secdb_db.Codec.unframe manifest in
  match fields with
  | m :: section :: prof :: table_names :: index_entries ->
      if m <> Secdb_storage.Storage.magic then Error "load: bad manifest magic"
      else if section <> "manifest" then Error "load: not a manifest"
      else if prof <> profile_name profile then
        Error
          (Printf.sprintf "load: database was saved under profile %s, not %s" prof
             (profile_name profile))
      else begin
        let t = create ~seed ~order ~master ~profile () in
        let* table_names = Secdb_db.Codec.unframe table_names in
        let* () =
          List.fold_left
            (fun acc name ->
              let* () = acc in
              let* data = read (name ^ ".table") in
              let* table_id, schema = Secdb_storage.Storage.peek_table data in
              let* tbl =
                Secdb_storage.Storage.decode_table
                  ~scheme:(cell_scheme t ~table_id ~schema) data
              in
              Hashtbl.add t.tables name tbl;
              recount_rows t name tbl;
              if table_id >= t.next_table_id then t.next_table_id <- table_id + 1;
              Ok ())
            (Ok ()) table_names
        in
        List.fold_left
          (fun acc entry ->
            let* () = acc in
            let* tbl_name, col = Secdb_db.Codec.unframe2 entry in
            let* tbl =
              match Hashtbl.find_opt t.tables tbl_name with
              | Some tbl -> Ok tbl
              | None -> Error (Printf.sprintf "load: index refers to unknown table %s" tbl_name)
            in
            let* col_id =
              match Schema.col_index (Etable.schema tbl) col with
              | c -> Ok c
              | exception Not_found ->
                  Error (Printf.sprintf "load: index refers to unknown column %s.%s" tbl_name col)
            in
            let codec = index_codec t ~table_id:(Etable.id tbl) ~col_id in
            let* data = read (Printf.sprintf "%s.%s.index" tbl_name col) in
            let* tree = Secdb_storage.Storage.decode_index ~codec data in
            (* a wrong key or tampered payload surfaces at query time, not
               here: statistics are best-effort *)
            let hist =
              try Secdb_query.Histogram.of_values (List.map fst (Bptree.range tree ()))
              with Bptree.Integrity _ -> Secdb_query.Histogram.create ()
            in
            Hashtbl.replace t.index_hists (tbl_name, col) hist;
            Hashtbl.add t.indexes (tbl_name, col) tree;
            if Secdb_index.Bptree.id tree >= t.next_index_id then
              t.next_index_id <- Secdb_index.Bptree.id tree + 1;
            Ok ())
          (Ok ()) index_entries
        |> Result.map (fun () -> t)
      end
  | _ -> Error "load: malformed manifest"
