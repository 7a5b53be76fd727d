open Secdb_util
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Address = Secdb_db.Address
module Metrics = Secdb_obs.Metrics

(* cells-touched traffic; scans count every decrypted row against the rows
   the predicate kept, so over-read (the false-positive surface the SoK
   paper says to measure, not assert) is visible as scanned - matched *)
let m_cells_encrypted = Metrics.counter "table.cells_encrypted"
let m_cells_decrypted = Metrics.counter "table.cells_decrypted"
let m_decrypt_failures = Metrics.counter "table.decrypt_failures"
let m_rows_scanned = Metrics.counter "table.rows_scanned"
let m_rows_matched = Metrics.counter "table.rows_matched"

type cell = Clear of Value.t | Cipher of string

type t = {
  id : int;
  schema : Schema.t;
  schemes : Secdb_schemes.Cell_scheme.t array; (* one per column *)
  rows : cell array Vec.t; (* [||] = tombstoned row: a schema has at least one column *)
}

let create ~id schema ~scheme =
  { id; schema; schemes = Array.init (Schema.ncols schema) scheme; rows = Vec.create () }

let id t = t.id
let schema t = t.schema
let scheme t ~col = t.schemes.(col)
let nrows t = Vec.length t.rows

let is_protected t col =
  (Schema.col t.schema col).Schema.protection = Schema.Encrypted

let encrypt_cell t ~row ~col value =
  Metrics.incr m_cells_encrypted;
  let addr = Address.v ~table:t.id ~row ~col in
  Cipher (t.schemes.(col).encrypt addr (Value.encode value))

let check_row_arity t values =
  let n = Schema.ncols t.schema in
  if List.length values <> n then
    invalid_arg
      (Printf.sprintf "Encrypted_table.insert: expected %d values, got %d" n
         (List.length values));
  List.iteri
    (fun col v ->
      match Schema.check_value (Schema.col t.schema col) v with
      | Ok () -> ()
      | Error e -> invalid_arg ("Encrypted_table.insert: " ^ e))
    values

let insert t values =
  check_row_arity t values;
  let row = Vec.length t.rows in
  let cells =
    List.mapi
      (fun col v -> if is_protected t col then encrypt_cell t ~row ~col v else Clear v)
      values
  in
  Vec.push t.rows (Array.of_list cells)

let insert_many ?pool t rows =
  List.iter (check_row_arity t) rows;
  let ncols = Schema.ncols t.schema in
  let row0 = Vec.length t.rows in
  (* flatten the batch into per-column cell jobs so each column's scheme
     encrypts its cells in one (possibly parallel) sweep; job order within a
     column is row order, which keeps stateful (non-parallel-safe) schemes
     on exactly the byte sequence the per-row insert loop would produce *)
  let rows_arr = Array.of_list (List.map Array.of_list rows) in
  let nrows_new = Array.length rows_arr in
  let cells = Array.make_matrix nrows_new ncols (Clear Value.Null) in
  for col = 0 to ncols - 1 do
    if is_protected t col then begin
      let jobs =
        Array.init nrows_new (fun i ->
            ( Address.v ~table:t.id ~row:(row0 + i) ~col,
              Value.encode rows_arr.(i).(col) ))
      in
      Metrics.add m_cells_encrypted (Array.length jobs);
      let cts = Secdb_schemes.Cell_scheme.encrypt_cells ?pool t.schemes.(col) jobs in
      for i = 0 to nrows_new - 1 do
        cells.(i).(col) <- Cipher cts.(i)
      done
    end
    else
      for i = 0 to nrows_new - 1 do
        cells.(i).(col) <- Clear rows_arr.(i).(col)
      done
  done;
  Array.iter (fun row_cells -> ignore (Vec.push t.rows row_cells)) cells

let decrypt_column ?pool t ~col =
  let n = nrows t in
  let live = Array.init n (fun row -> Vec.get t.rows row) in
  Array.mapi
    (fun row cells -> match cells with [||] -> None | cells -> Some (row, cells.(col)))
    live
  |> fun tagged ->
  (* decrypt the protected cells in one batch sweep, clear cells inline *)
  let jobs =
    Array.of_list
      (List.filter_map
         (function
           | Some (row, Cipher ct) -> Some (Address.v ~table:t.id ~row ~col, ct)
           | _ -> None)
         (Array.to_list tagged))
  in
  Metrics.add m_cells_decrypted (Array.length jobs);
  let decs = Secdb_schemes.Cell_scheme.decrypt_cells ?pool t.schemes.(col) jobs in
  let next = ref 0 in
  Array.map
    (function
      | None -> None
      | Some (_, Clear v) -> Some (Ok v)
      | Some (_, Cipher _) ->
          let r = decs.(!next) in
          incr next;
          Some
            (match r with
            | Error e -> Error e
            | Ok plain -> Value.decode plain))
    tagged

let live_cells t row op =
  match Vec.get t.rows row with
  | [||] -> invalid_arg (Printf.sprintf "Encrypted_table.%s: row %d is deleted" op row)
  | cells -> cells

let is_live t ~row = Array.length (Vec.get t.rows row) > 0

let get t ~row ~col =
  match Vec.get t.rows row with
  | [||] -> Error "row is deleted"
  | cells -> (
      match cells.(col) with
      | Clear v -> Ok v
      | Cipher ct -> (
          Metrics.incr m_cells_decrypted;
          let addr = Address.v ~table:t.id ~row ~col in
          match t.schemes.(col).decrypt addr ct with
          | Error e ->
              Metrics.incr m_decrypt_failures;
              Error e
          | Ok plain -> Value.decode plain))

let get_exn t ~row ~col =
  match get t ~row ~col with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "cell (%d,%d,%d): %s" t.id row col e)

let update t ~row ~col value =
  (match Schema.check_value (Schema.col t.schema col) value with
  | Ok () -> ()
  | Error e -> invalid_arg ("Encrypted_table.update: " ^ e));
  let cells = live_cells t row "update" in
  cells.(col) <- (if is_protected t col then encrypt_cell t ~row ~col value else Clear value)

let delete_row t ~row =
  ignore (Vec.get t.rows row);
  Vec.set t.rows row [||]

let decrypt_row t row =
  Array.init (Schema.ncols t.schema) (fun col -> get_exn t ~row ~col)

let select t pred =
  let acc = ref [] in
  for row = 0 to nrows t - 1 do
    if is_live t ~row then begin
      Metrics.incr m_rows_scanned;
      let values = decrypt_row t row in
      if pred values then begin
        Metrics.incr m_rows_matched;
        acc := (row, values) :: !acc
      end
    end
  done;
  List.rev !acc

let select_result t pred =
  match select t pred with
  | rows -> Ok rows
  | exception Failure e -> Error e

let raw_ciphertext t ~row ~col =
  match Vec.get t.rows row with
  | [||] -> None
  | cells -> ( match cells.(col) with Clear _ -> None | Cipher ct -> Some ct)

let set_raw t ~row ~col ct =
  let cells = live_cells t row "set_raw" in
  match cells.(col) with
  | Clear _ -> invalid_arg "Encrypted_table.set_raw: column is not protected"
  | Cipher _ -> cells.(col) <- Cipher ct

let swap_cells t ~col ~row_a ~row_b =
  match (raw_ciphertext t ~row:row_a ~col, raw_ciphertext t ~row:row_b ~col) with
  | Some a, Some b ->
      set_raw t ~row:row_a ~col b;
      set_raw t ~row:row_b ~col a
  | _ -> invalid_arg "Encrypted_table.swap_cells: column is not protected"

let storage_bytes t ~col =
  let acc = ref 0 in
  for row = 0 to nrows t - 1 do
    match raw_ciphertext t ~row ~col with
    | Some ct -> acc := !acc + String.length ct
    | None -> ()
  done;
  !acc

let plaintext_bytes t ~col =
  let acc = ref 0 in
  for row = 0 to nrows t - 1 do
    if is_live t ~row then
      acc := !acc + String.length (Value.encode (get_exn t ~row ~col))
  done;
  !acc

type stored_cell = Stored_clear of Value.t | Stored_cipher of string

let dump_rows t =
  List.init (nrows t) (fun row ->
      match Vec.get t.rows row with
      | [||] -> None
      | cells ->
          Some (Array.map (function Clear v -> Stored_clear v | Cipher ct -> Stored_cipher ct) cells))

let restore ~id schema ~scheme ~rows =
  let t = create ~id schema ~scheme in
  let ncols = Schema.ncols schema in
  let rec load i = function
    | [] -> Ok t
    | None :: rest ->
        ignore (Vec.push t.rows [||]);
        load (i + 1) rest
    | Some row :: rest ->
        if Array.length row <> ncols then
          Error (Printf.sprintf "restore: row %d has %d cells, schema has %d columns" i
                   (Array.length row) ncols)
        else begin
          let ok = ref (Ok ()) in
          let cells =
            Array.mapi
              (fun col cell ->
                match (cell, (Schema.col schema col).Schema.protection) with
                | Stored_clear v, Schema.Clear -> Clear v
                | Stored_cipher ct, Schema.Encrypted -> Cipher ct
                | Stored_clear _, Schema.Encrypted ->
                    ok := Error (Printf.sprintf "restore: row %d col %d should be encrypted" i col);
                    Clear Value.Null
                | Stored_cipher _, Schema.Clear ->
                    ok := Error (Printf.sprintf "restore: row %d col %d should be clear" i col);
                    Clear Value.Null)
              row
          in
          match !ok with
          | Error e -> Error e
          | Ok () ->
              ignore (Vec.push t.rows cells);
              load (i + 1) rest
        end
  in
  load 0 rows
