module Rng = Secdb_util.Rng
module Nonce = Secdb_aead.Nonce
module Shard = Secdb_db.Shard
module Merkle = Secdb_storage.Merkle
module Oplog = Secdb.Oplog
module Vfs = Secdb_storage.Vfs
module Encdb = Secdb.Encdb
module Keyring = Secdb.Keyring

(* --- log credentials --------------------------------------------------------

   The oplog key is derived from the same master secret as everything
   else, under its own label: possession of the master is what entitles a
   node to seal or verify replicated history.  Nonces never need to match
   across nodes (each record carries its own), but they must never repeat
   under this key — a resumed primary cannot restart a bare counter, so
   each boot draws a random 8-byte prefix and counts within it. *)

let log_aead ~master =
  let kr = Keyring.open_session ~master in
  Fun.protect
    ~finally:(fun () -> Keyring.close_session kr)
    (fun () ->
      Secdb_aead.Eax.make
        (Secdb_cipher.Aes_fast.cipher ~key:(Keyring.derive kr ~label:"secdb/oplog/key/v1" ~length:16)))

let log_nonce ~rng =
  let boot = Rng.bytes rng 8 in
  let ctr = Nonce.counter ~size:8 () in
  fun () -> boot ^ ctr ()

(* --- change → op mapping ----------------------------------------------------

   The primary's executors observe mutations as {!Encdb.change} events;
   each maps to exactly one oplog record.  A replica applying the records
   in log order re-derives the same change stream, the same row ids and —
   with equal seeds and shard counts — the same ciphertext bytes. *)

let op_of_change : Encdb.change -> Oplog.op = function
  | Encdb.Created_table schema -> Oplog.Create_table schema
  | Encdb.Created_index { table; col } -> Oplog.Create_index { table; col }
  | Encdb.Created_range_index { table; col; buckets } ->
      Oplog.Create_range_index { table; col; buckets }
  | Encdb.Inserted { table; values; _ } -> Oplog.Insert { table; values }
  | Encdb.Updated { table; row; col; value } -> Oplog.Update { table; row; col; value }
  | Encdb.Deleted { table; row } -> Oplog.Delete { table; row }

let route ~shards op = Shard.key_index ~shards (Oplog.op_table op)

let apply_routed dbs op =
  let i = route ~shards:(Array.length dbs) op in
  Oplog.apply dbs.(i) op

(* --- attestation ------------------------------------------------------------ *)

(* One root over the per-shard digests (in slot order): byte-identical
   state across every shard, in one constant-size comparison. *)
let combined_root digests = Merkle.root digests

let root_of_dbs dbs = combined_root (Array.to_list (Array.map Encdb.digest dbs))

(* --- point-in-time restore -------------------------------------------------- *)

let restore ?vfs ~path ~aead ~shards ~mkdb ?to_op () =
  if shards < 1 then invalid_arg "Repl.restore: need at least one shard";
  match Oplog.recover ?vfs ~path ~aead () with
  | Error e -> Error e
  | Ok (ops, tail) -> (
      let total = List.length ops in
      let upto = match to_op with None -> total | Some n -> n in
      if upto < 0 || upto > total then
        Error
          (Printf.sprintf
             "restore: requested op %d but the authenticated prefix holds %d (%s)" upto total
             (Oplog.tail_to_string tail))
      else
        let dbs = Array.init shards mkdb in
        let rec go applied = function
          | (_, op) :: rest when applied < upto -> (
              match apply_routed dbs op with
              | Ok () -> go (applied + 1) rest
              | Error e -> Error (Printf.sprintf "restore: op %d failed: %s" applied e))
          | _ -> Ok (dbs, applied)
        in
        go 0 ops)

(* --- the replica pull loop --------------------------------------------------

   Replication is pull-based over the ordinary authenticated RPC channel:
   the replica is just a client whose requests happen to be [Repl_pull].
   Each pull carries the replica's durable count as the ack, so the
   primary never needs per-replica state — crash either side, reconnect,
   and the ack re-synchronises the stream.  Every shipped record is
   re-verified (CRC, frame, seq-as-AD, AEAD tag) before it is stored or
   applied; a record that fails is a divergence and stops the replica
   rather than letting it apply unauthenticated history.  So does a
   failure of the replica's own log: a node that can no longer make what
   it applies durable stops instead of serving a state it cannot keep. *)

type progress = { got : int; primary_durable : int }

let pull_once client ~aead ?writer ~ack ~apply ?(max = 256) () =
  let ( let* ) = Result.bind in
  match Client.call client (Wire.Repl_pull { ack; max }) with
  | Error e -> Error (`Conn (Client.error_to_string e))
  | Ok (Wire.Repl_records { durable; records }) -> (
      (* the prefix of records that sit at ack, ack + 1, ... *)
      let rec in_order seq = function
        | (s, sealed) :: rest when s = seq ->
            let prefix, verdict = in_order (seq + 1) rest in
            (sealed :: prefix, verdict)
        | (s, _) :: _ -> ([], Error (Printf.sprintf "repl: expected record %d, got %d" seq s))
        | [] -> ([], Ok ())
      in
      let sealed, ordered = in_order ack records in
      (* verify each record at its position; a local log takes the
         verified prefix with one write and one fsync, before any of it is
         applied, so the next ack only ever claims durable records *)
      match
        match writer with
        | Some w -> Oplog.append_sealed w sealed
        | None -> Oplog.verify_prefix ~aead ~seq:ack sealed
      with
      | exception Vfs.Io_error { op; path; reason } ->
          Error (`Fatal (Printf.sprintf "repl: local oplog failed: %s %s: %s" op path reason))
      | exception Vfs.Crashed path -> Error (`Fatal ("repl: local oplog failed: crash on " ^ path))
      | ops, verified ->
          let rec apply_all seq = function
            | [] -> Ok (seq - ack)
            | op :: rest -> (
                match apply op with
                | Ok () -> apply_all (seq + 1) rest
                | Error e ->
                    Error (`Fatal (Printf.sprintf "repl: apply of op %d failed: %s" seq e)))
          in
          let* got = apply_all ack ops in
          let* () = Result.map_error (fun e -> `Fatal e) (Result.bind verified (fun () -> ordered)) in
          Ok { got; primary_durable = durable })
  | Ok _ -> Error (`Fatal "repl: unexpected response to a pull")

let run_replica ~connect ~aead ?writer ~ack ~apply ?(max = 256) ?(poll = 0.05) ~stop () =
  let rec with_conn delay =
    if stop () then Ok ()
    else
      match connect () with
      | Error (_ : string) ->
          (* the primary is down or restarting; keep knocking with a
             capped backoff until it returns or we are told to stop *)
          (try Thread.delay delay with _ -> ());
          with_conn (Float.min 1.0 (delay *. 2.))
      | Ok client ->
          let rec pump () =
            if stop () then begin
              Client.close client;
              Ok ()
            end
            else
              match pull_once client ~aead ?writer ~ack:(ack ()) ~apply ~max () with
              | Ok { got = 0; _ } ->
                  (try Thread.delay poll with _ -> ());
                  pump ()
              | Ok _ -> pump ()
              | Error (`Conn _) ->
                  (* primary went away mid-stream: reconnect and re-ack *)
                  Client.close client;
                  with_conn poll
              | Error (`Fatal e) ->
                  Client.close client;
                  Error e
          in
          pump ()
  in
  with_conn poll
