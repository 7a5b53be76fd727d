module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table
module Encdb = Secdb.Encdb
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)
module Smap = Map.Make (String)
module Vmap = Map.Make (Value)

(* Live rows by row id.  Row ids are dense (a table's rows are numbered
   from 0 as they are inserted), so they are kept in copy-on-write chunks
   of [width] consecutive ids: one map node and one slot per row in place
   of a map node per row, which is most of what a row costs here besides
   its values.  An empty slot is [[||]] — no live row has zero columns. *)
module Rows = struct
  let width = 32

  type t = Value.t array array Imap.t

  let empty : t = Imap.empty
  let live vs = Array.length vs > 0

  let find (t : t) row =
    match Imap.find_opt (row / width) t with
    | Some c when live c.(row mod width) -> Some c.(row mod width)
    | Some _ | None -> None

  let add (t : t) row vs =
    let c =
      match Imap.find_opt (row / width) t with
      | Some c -> Array.copy c
      | None -> Array.make width [||]
    in
    c.(row mod width) <- vs;
    Imap.add (row / width) c t

  let remove (t : t) row =
    match Imap.find_opt (row / width) t with
    | Some c when live c.(row mod width) ->
        let c = Array.copy c in
        c.(row mod width) <- [||];
        if Array.exists live c then Imap.add (row / width) c t else Imap.remove (row / width) t
    | Some _ | None -> t

  (* every live row, ascending *)
  let bindings (t : t) =
    Seq.fold_left
      (fun acc (ci, c) ->
        let acc = ref acc in
        for i = width - 1 downto 0 do
          if live c.(i) then acc := ((ci * width) + i, c.(i)) :: !acc
        done;
        !acc)
      [] (Imap.to_rev_seq t)
end

(* [keys.(c)] is [Some m] when column [c] has an exact index: [m] maps each
   value in the column, ordered by {!Value.compare}, to the rows holding
   it.  Keys are values, not {!Value.encode} strings: encoded [Int]s are
   big-endian two's complement, so byte order would put negatives after
   positives and a range could not seek.  All maps are immutable, so
   publishing a snapshot is one atomic store and value arrays are copied
   before mutation. *)
type table_snap = {
  schema : Schema.t;
  rows : Rows.t;
  keys : Iset.t Vmap.t option array;
}

type t = table_snap Smap.t

let empty = Smap.empty
let table t name = Smap.find_opt name t
let schema ts = ts.schema

let all_rows ts = Rows.bindings ts.rows

(* prepend [rows] with their values to [acc], last row first *)
let rev_append_rows ts rows acc =
  Iset.fold (fun r acc -> (r, Option.get (Rows.find ts.rows r)) :: acc) rows acc

let key_map ts col = ts.keys.(Schema.col_index ts.schema col)
let has_index ts ~col = key_map ts col <> None

(* seek to the first key [>= lo], stop at the first key [> hi]: O(log n + k) *)
let index_range ts ~col ?lo ?hi () =
  Option.map
    (fun m ->
      let rec take seq acc =
        match seq () with
        | Seq.Cons ((v, rows), rest)
          when Option.fold hi ~none:true ~some:(fun hi -> Value.compare v hi <= 0) ->
            take rest (rev_append_rows ts rows acc)
        | _ -> List.rev acc
      in
      take (match lo with Some lo -> Vmap.to_seq_from lo m | None -> Vmap.to_seq m) [])
    (key_map ts col)

let add_key m v row =
  Vmap.update v
    (function None -> Some (Iset.singleton row) | Some rows -> Some (Iset.add row rows))
    m

let drop_key m v row =
  Vmap.update v
    (function
      | None -> None
      | Some rows ->
          let rows = Iset.remove row rows in
          if Iset.is_empty rows then None else Some rows)
    m

let build_keys rows col =
  List.fold_left (fun m (row, vs) -> add_key m vs.(col) row) Vmap.empty (Rows.bindings rows)

let with_table t name f =
  match Smap.find_opt name t with None -> t | Some ts -> Smap.add name (f ts) t

let apply t (change : Encdb.change) =
  match change with
  | Encdb.Created_table schema ->
      Smap.add schema.Schema.table_name
        { schema; rows = Rows.empty; keys = Array.make (Schema.ncols schema) None }
        t
  | Encdb.Created_index { table; col } ->
      with_table t table (fun ts ->
          match Schema.col_index ts.schema col with
          | ci ->
              let keys = Array.copy ts.keys in
              keys.(ci) <- Some (build_keys ts.rows ci);
              { ts with keys }
          | exception Not_found -> ts)
  | Encdb.Created_range_index _ ->
      (* the bucketized index's candidate sets come back in ascending row
         order — the same visible order as a full scan — so the snapshot
         needs no extra state to mirror a RANGE BUCKET SCAN: {!all_rows}
         already is that order *)
      t
  | Encdb.Inserted { table; row; values } ->
      with_table t table (fun ts ->
          let vs = Array.of_list values in
          let keys = Array.mapi (fun ci m -> Option.map (fun m -> add_key m vs.(ci) row) m) ts.keys in
          { ts with rows = Rows.add ts.rows row vs; keys })
  | Encdb.Updated { table; row; col; value } ->
      with_table t table (fun ts ->
          match (Rows.find ts.rows row, Schema.col_index ts.schema col) with
          | Some old, ci ->
              let vs = Array.copy old in
              vs.(ci) <- value;
              let keys =
                match ts.keys.(ci) with
                | None -> ts.keys
                | Some m ->
                    let keys = Array.copy ts.keys in
                    keys.(ci) <- Some (add_key (drop_key m old.(ci) row) value row);
                    keys
              in
              { ts with rows = Rows.add ts.rows row vs; keys }
          | None, _ | (exception Not_found) -> ts)
  | Encdb.Deleted { table; row } ->
      with_table t table (fun ts ->
          match Rows.find ts.rows row with
          | None -> ts
          | Some old ->
              let keys =
                Array.mapi (fun ci m -> Option.map (fun m -> drop_key m old.(ci) row) m) ts.keys
              in
              { ts with rows = Rows.remove ts.rows row; keys })

let of_db db =
  List.fold_left
    (fun t name ->
      let tbl = Encdb.table db name in
      let schema = Etable.schema tbl in
      match Etable.select_result tbl (fun _ -> true) with
      | Error _ -> t (* unreadable table: leave it to the locked path *)
      | Ok live ->
          let rows =
            List.fold_left (fun m (row, vs) -> Rows.add m row vs) Rows.empty live
          in
          let keys =
            Array.init (Schema.ncols schema) (fun ci ->
                if Encdb.has_index db ~table:name ~col:(Schema.col schema ci).Schema.name
                then Some (build_keys rows ci)
                else None)
          in
          Smap.add name { schema; rows; keys } t)
    empty (Encdb.table_names db)
