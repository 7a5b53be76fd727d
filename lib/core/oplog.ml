module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Codec = Secdb_db.Codec
module Aead = Secdb_aead.Aead
module Xbytes = Secdb_util.Xbytes
module Crc32 = Secdb_util.Crc32
module Vfs = Secdb_storage.Vfs
module Storage = Secdb_storage.Storage
module Metrics = Secdb_obs.Metrics
module Trace = Secdb_obs.Trace

let m_appends = Metrics.counter "oplog.appends"
let m_syncs = Metrics.counter "oplog.syncs"
let m_replayed = Metrics.counter "oplog.replayed"
let m_replay_failures = Metrics.counter "oplog.replay_failures"
let h_append = Metrics.histogram "oplog.append_seconds"
let h_replay = Metrics.histogram "oplog.replay_seconds"

type op =
  | Create_table of Schema.t
  | Create_index of { table : string; col : string }
  | Create_range_index of { table : string; col : string; buckets : int }
  | Insert of { table : string; values : Value.t list }
  | Update of { table : string; row : int; col : string; value : Value.t }
  | Delete of { table : string; row : int }

let op_table = function
  | Create_table s -> s.Schema.table_name
  | Create_index { table; _ }
  | Create_range_index { table; _ }
  | Insert { table; _ }
  | Update { table; _ }
  | Delete { table; _ } -> table

let pp_op ppf = function
  | Create_table s -> Fmt.pf ppf "CREATE TABLE %s" s.Schema.table_name
  | Create_index { table; col } -> Fmt.pf ppf "CREATE INDEX %s.%s" table col
  | Create_range_index { table; col; buckets } ->
      Fmt.pf ppf "CREATE RANGE INDEX %s.%s (%d buckets)" table col buckets
  | Insert { table; values } ->
      Fmt.pf ppf "INSERT %s (%a)" table (Fmt.list ~sep:Fmt.comma Value.pp) values
  | Update { table; row; col; value } ->
      Fmt.pf ppf "UPDATE %s row %d %s <- %a" table row col Value.pp value
  | Delete { table; row } -> Fmt.pf ppf "DELETE %s row %d" table row

let encode_op = function
  | Create_table schema -> Codec.frame [ "ctb"; Storage.encode_schema schema ]
  | Create_index { table; col } -> Codec.frame [ "cix"; table; col ]
  | Create_range_index { table; col; buckets } ->
      Codec.frame [ "crx"; table; col; Xbytes.int_to_be_string ~width:8 buckets ]
  | Insert { table; values } -> Codec.frame ("ins" :: table :: List.map Value.encode values)
  | Update { table; row; col; value } ->
      Codec.frame [ "upd"; table; Xbytes.int_to_be_string ~width:8 row; col; Value.encode value ]
  | Delete { table; row } ->
      Codec.frame [ "del"; table; Xbytes.int_to_be_string ~width:8 row ]

let decode_op bytes =
  let ( let* ) = Result.bind in
  let* fields = Codec.unframe bytes in
  match fields with
  | [ "ctb"; schema ] ->
      let* schema = Storage.decode_schema schema in
      Ok (Create_table schema)
  | [ "cix"; table; col ] -> Ok (Create_index { table; col })
  | [ "crx"; table; col; buckets ] ->
      let buckets = Xbytes.be_string_to_int buckets in
      if buckets < 1 then Error "oplog: implausible bucket count"
      else Ok (Create_range_index { table; col; buckets })
  | "ins" :: table :: values ->
      let* values =
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            let* value = Value.decode v in
            Ok (value :: acc))
          (Ok []) values
        |> Result.map List.rev
      in
      Ok (Insert { table; values })
  | [ "upd"; table; row; col; value ] ->
      let* value = Value.decode value in
      Ok (Update { table; row = Xbytes.be_string_to_int row; col; value })
  | [ "del"; table; row ] -> Ok (Delete { table; row = Xbytes.be_string_to_int row })
  | _ -> Error "oplog: unknown record shape"

(* --- record framing ------------------------------------------------------ *)

(* Record layout: [len:4][record][crc32(len ^ record):4].  The CRC is not a
   security feature — the AEAD tag inside [record] is — it distinguishes a
   torn tail (storage fault) from a forged record (adversary) and lets
   recovery stop cleanly without an AEAD pass over garbage. *)

let max_record_len = 1 lsl 26

type tail =
  | Complete
  | Torn_length of { off : int; have : int }
  | Torn_record of { seq : int; off : int; expect : int; have : int }
  | Bad_length of { seq : int; off : int; len : int }
  | Bad_crc of { seq : int; off : int }
  | Bad_record of { seq : int; off : int; reason : string }
  | Bad_auth of { seq : int; off : int }

let tail_to_string = function
  | Complete -> "oplog: clean tail"
  | Torn_length { off; have } ->
      Printf.sprintf "oplog: torn length field at offset %d (%d of 4 bytes)" off have
  | Torn_record { seq; off; expect; have } ->
      Printf.sprintf "oplog: record %d torn at offset %d (%d of %d bytes)" seq off have expect
  | Bad_length { seq; off; len } ->
      Printf.sprintf "oplog: record %d at offset %d has implausible length %d" seq off len
  | Bad_crc { seq; off } ->
      Printf.sprintf "oplog: record %d at offset %d failed its CRC" seq off
  | Bad_record { seq; off; reason } ->
      Printf.sprintf "oplog: record %d at offset %d malformed: %s" seq off reason
  | Bad_auth { seq; off } ->
      Printf.sprintf "oplog: record %d at offset %d failed authentication" seq off

(* Verify one sealed record against the sequence number it must sit at.
   Used by the replica side of log shipping: a record is only accepted into
   the local copy if it would also survive [recover] — CRC, frame, the
   sequence number bound as associated data, and the AEAD tag. *)
let verify_sealed ~aead ~seq sealed =
  let len = String.length sealed in
  if len < 8 then Error "oplog: sealed record too short"
  else
    let rlen = Xbytes.be_string_to_int (String.sub sealed 0 4) in
    if rlen <= 0 || rlen > max_record_len then Error "oplog: implausible record length"
    else if len <> 4 + rlen + 4 then Error "oplog: sealed record size mismatch"
    else if Crc32.update 0 sealed ~off:0 ~len:(4 + rlen) <> Xbytes.get_uint32_be sealed (4 + rlen)
    then Error "oplog: sealed record failed its CRC"
    else
      match Codec.unframe (String.sub sealed 4 rlen) with
      | Ok [ ad; n; ct; tag ] -> (
          if ad <> Xbytes.int_to_be_string ~width:8 seq then
            Error "oplog: sealed record out of order or spliced"
          else
            match Aead.decrypt aead ~nonce:n ~ad ~tag ct with
            | Error Aead.Invalid -> Error "oplog: sealed record failed authentication"
            | Ok bytes -> decode_op bytes)
      | Ok _ | Error _ -> Error "oplog: sealed record malformed"

(* --- writer ------------------------------------------------------------- *)

type sync_policy = Always | Every_n of int | Never

type writer = {
  vf : Vfs.file;
  aead : Aead.t;
  nonce : Secdb_aead.Nonce.t;
  policy : sync_policy;
  mutable seq : int;
  mutable pos : int; (* next record's byte offset *)
  mutable offs : int array; (* offs.(i) = byte offset of record i, for i < seq *)
  mutable durable : int; (* records covered by the last fsync *)
  mutable unsynced : int; (* appends not yet covered by an fsync *)
  mutable open_ : bool;
}

let ensure_cap w n =
  if Array.length w.offs < n then begin
    let cap = max 16 (max n (2 * Array.length w.offs)) in
    let a = Array.make cap 0 in
    Array.blit w.offs 0 a 0 w.seq;
    w.offs <- a
  end

(* Longest-valid-prefix parse.  Stops at the first record that fails any
   check: once one record is unparsable the sequence chain beyond it is
   unauthenticated, so nothing after it can be trusted anyway.  Also
   returns each record's byte offset and the end offset of the prefix so a
   resumed writer can seat itself exactly at the boundary. *)
let parse_ext ~aead data =
  let len = String.length data in
  let rec loop off seq acc offs =
    let stop tail = (List.rev acc, tail, List.rev offs, off) in
    if off = len then stop Complete
    else if off + 4 > len then stop (Torn_length { off; have = len - off })
    else
      let rlen = Xbytes.be_string_to_int (String.sub data off 4) in
      if rlen <= 0 || rlen > max_record_len then stop (Bad_length { seq; off; len = rlen })
      else if off + 4 + rlen + 4 > len then
        stop (Torn_record { seq; off; expect = rlen + 8; have = len - off })
      else
        let crc = Xbytes.get_uint32_be data (off + 4 + rlen) in
        if Crc32.update 0 data ~off ~len:(4 + rlen) <> crc then stop (Bad_crc { seq; off })
        else
          let record = String.sub data (off + 4) rlen in
          match Codec.unframe record with
          | Ok [ ad; n; ct; tag ] -> (
              if ad <> Xbytes.int_to_be_string ~width:8 seq then
                stop (Bad_record { seq; off; reason = "out of order or spliced" })
              else
                match Aead.decrypt aead ~nonce:n ~ad ~tag ct with
                | Error Aead.Invalid -> stop (Bad_auth { seq; off })
                | Ok bytes -> (
                    match decode_op bytes with
                    | Error e -> stop (Bad_record { seq; off; reason = e })
                    | Ok op -> loop (off + 8 + rlen) (seq + 1) ((seq, op) :: acc) (off :: offs)))
          | Ok _ | Error _ -> stop (Bad_record { seq; off; reason = "malformed frame" })
  in
  loop 0 0 [] []

let parse ~aead data =
  let ops, tail, _, _ = parse_ext ~aead data in
  (ops, tail)

let create ?(vfs = Vfs.unix) ?(sync = Always) ?(mode = `Trunc) ~path ~aead ~nonce () =
  (match sync with
  | Every_n n when n < 1 -> invalid_arg "Oplog.create: Every_n needs n >= 1"
  | _ -> ());
  let fresh vf =
    {
      vf;
      aead;
      nonce;
      policy = sync;
      seq = 0;
      pos = 0;
      offs = [||];
      durable = 0;
      unsynced = 0;
      open_ = true;
    }
  in
  match mode with
  | `Trunc -> fresh (vfs.Vfs.open_file ~path ~mode:`Trunc)
  | `Resume -> (
      match vfs.Vfs.open_file ~path ~mode:`Rw with
      | exception Vfs.Io_error _ ->
          (* no log yet: a resume of nothing is a fresh log *)
          fresh (vfs.Vfs.open_file ~path ~mode:`Trunc)
      | vf ->
          let size = vf.Vfs.size () in
          let buf = Bytes.create size in
          let got = if size = 0 then 0 else Vfs.really_pread vf ~pos:0 buf ~off:0 ~len:size in
          let data = Bytes.sub_string buf 0 got in
          let ops, _tail, offs, end_off = parse_ext ~aead data in
          (* seat the writer at the longest authenticated prefix; anything
             beyond it is a torn or corrupt tail that must not survive into
             the resumed history *)
          if end_off < size then vf.Vfs.truncate end_off;
          vf.Vfs.fsync ();
          let w = fresh vf in
          w.seq <- List.length ops;
          w.pos <- end_off;
          w.offs <- Array.of_list offs;
          w.durable <- w.seq;
          w)

let do_sync w =
  w.vf.Vfs.fsync ();
  w.unsynced <- 0;
  w.durable <- w.seq;
  Metrics.incr m_syncs

let sync w =
  if not w.open_ then invalid_arg "Oplog.sync: writer is closed";
  if w.unsynced > 0 then do_sync w

let seal w ~seq op =
  let n = w.nonce () in
  let ad = Xbytes.int_to_be_string ~width:8 seq in
  let ct, tag = Aead.encrypt w.aead ~nonce:n ~ad (encode_op op) in
  let record = Codec.frame [ ad; n; ct; tag ] in
  let len4 = Xbytes.int_to_be_string ~width:4 (String.length record) in
  let crc = Crc32.string (len4 ^ record) in
  len4 ^ record ^ Xbytes.int_to_be_string ~width:4 crc

(* Write [records] (sealed for sequence numbers [w.seq], [w.seq + 1], ...)
   with one pwrite, then apply the sync policy once. *)
let write_records w records =
  let start = w.pos in
  (try Vfs.really_pwrite w.vf ~pos:start (String.concat "" records)
   with e ->
     (* an injected EIO/ENOSPC can leave a torn record; put the log back
        at the last record boundary so the failure is not also corruption *)
     (try w.vf.Vfs.truncate start with Vfs.Io_error _ | Vfs.Crashed _ -> ());
     raise e);
  ensure_cap w (w.seq + List.length records);
  List.iter
    (fun r ->
      w.offs.(w.seq) <- w.pos;
      w.pos <- w.pos + String.length r;
      w.seq <- w.seq + 1;
      w.unsynced <- w.unsynced + 1)
    records;
  match w.policy with
  | Always -> do_sync w
  | Every_n n -> if w.unsynced >= n then do_sync w
  | Never -> ()

let append_batch w ops =
  if not w.open_ then invalid_arg "Oplog.append_batch: writer is closed";
  let first = w.seq in
  if ops <> [] then begin
    Trace.with_span ~hist:h_append "oplog.append" @@ fun () ->
    Metrics.add m_appends (List.length ops);
    write_records w (List.mapi (fun i op -> seal w ~seq:(first + i) op) ops)
  end;
  first

let append w op = append_batch w [ op ]

let append_sealed w sealed =
  if not w.open_ then invalid_arg "Oplog.append_sealed: writer is closed";
  match verify_sealed ~aead:w.aead ~seq:w.seq sealed with
  | Error _ as e -> e
  | Ok op ->
      Metrics.incr m_appends;
      write_records w [ sealed ];
      Ok op

let count w = w.seq
let durable w = w.durable

let read_sealed w ~from ~max =
  if not w.open_ then invalid_arg "Oplog.read_sealed: writer is closed";
  if from < 0 || max < 0 then invalid_arg "Oplog.read_sealed: negative argument";
  (* only fsynced records ship: a record the primary could still lose in a
     crash must never outlive it on a replica, or the replica would stop
     being a prefix of the primary *)
  let upto = min w.durable (from + max) in
  let rec go i acc =
    if i >= upto then List.rev acc
    else
      let start = w.offs.(i) in
      let stop = if i + 1 < w.seq then w.offs.(i + 1) else w.pos in
      let buf = Bytes.create (stop - start) in
      let got = Vfs.really_pread w.vf ~pos:start buf ~off:0 ~len:(stop - start) in
      if got <> stop - start then List.rev acc
      else go (i + 1) ((i, Bytes.to_string buf) :: acc)
  in
  if from >= upto then [] else go from []

let close w =
  if w.open_ then begin
    (try sync w with Vfs.Crashed _ -> ());
    w.vf.Vfs.close ();
    w.open_ <- false
  end

(* --- reader ------------------------------------------------------------- *)

let read_log ?(vfs = Vfs.unix) path =
  match Vfs.read_all vfs ~path with
  | data -> Ok data
  | exception Vfs.Io_error { reason; _ } -> Error ("oplog: " ^ reason)

let replay ?vfs ~path ~aead () =
  Trace.with_span ~hist:h_replay "oplog.replay" @@ fun () ->
  let r =
    match read_log ?vfs path with
    | Error _ as e -> e
    | Ok data -> (
        match parse ~aead data with
        | ops, Complete -> Ok ops
        | _, tail -> Error (tail_to_string tail))
  in
  (match r with
  | Ok ops -> Metrics.add m_replayed (List.length ops)
  | Error _ -> Metrics.incr m_replay_failures);
  r

let recover ?vfs ~path ~aead () =
  Trace.with_span ~hist:h_replay "oplog.recover" @@ fun () ->
  match read_log ?vfs path with
  | Error _ as e -> e
  | Ok data ->
      let ops, tail = parse ~aead data in
      Metrics.add m_replayed (List.length ops);
      if tail <> Complete then Metrics.incr m_replay_failures;
      Ok (ops, tail)

let apply db = function
  | Create_table schema -> (
      match Encdb.create_table db schema with
      | () -> Ok ()
      | exception Invalid_argument e -> Error e)
  | Create_index { table; col } -> (
      match Encdb.create_index db ~table ~col with
      | () -> Ok ()
      | exception Invalid_argument e -> Error e
      | exception Not_found -> Error ("oplog: unknown table " ^ table))
  | Create_range_index { table; col; buckets } -> (
      match Encdb.create_range_index db ~table ~col ~buckets () with
      | () -> Ok ()
      | exception Invalid_argument e -> Error e
      | exception Not_found -> Error ("oplog: unknown table " ^ table))
  | Insert { table; values } -> (
      match Encdb.insert db ~table values with
      | (_ : int) -> Ok ()
      | exception Invalid_argument e -> Error e
      | exception Not_found -> Error ("oplog: unknown table " ^ table))
  | Update { table; row; col; value } -> Encdb.update db ~table ~row ~col value
  | Delete { table; row } -> Encdb.delete_row db ~table ~row

type replay_error = { applied : int; reason : string }

let replay_into db ?vfs ~path ~aead () =
  match replay ?vfs ~path ~aead () with
  | Error reason -> Error { applied = 0; reason }
  | Ok ops ->
      let rec run applied = function
        | [] -> Ok applied
        | (_, op) :: rest -> (
            match apply db op with
            | Ok () -> run (applied + 1) rest
            | Error reason -> Error { applied; reason })
      in
      run 0 ops
