module Value = Secdb_db.Value
module Xbytes = Secdb_util.Xbytes
module Hmac = Secdb_hash.Hmac

let protocol_version = 1
let magic = "SDBN"
let default_max_frame = 1 lsl 20
let nonce_len = 16
let transcript_mac_len = 32
let request_mac_len = 16

(* --- structured errors ---------------------------------------------------- *)

type err_code =
  | Auth
  | Frame
  | Too_large
  | Unknown_op
  | Bad_payload
  | App
  | Server_error
  | Backpressure

let err_code_to_string = function
  | Auth -> "auth"
  | Frame -> "frame"
  | Too_large -> "too-large"
  | Unknown_op -> "unknown-op"
  | Bad_payload -> "bad-payload"
  | App -> "app"
  | Server_error -> "server-error"
  | Backpressure -> "backpressure"

let err_code_to_int = function
  | Auth -> 1
  | Frame -> 2
  | Too_large -> 3
  | Unknown_op -> 4
  | Bad_payload -> 5
  | App -> 6
  | Server_error -> 7
  | Backpressure -> 8

let err_code_of_int = function
  | 1 -> Some Auth
  | 2 -> Some Frame
  | 3 -> Some Too_large
  | 4 -> Some Unknown_op
  | 5 -> Some Bad_payload
  | 6 -> Some App
  | 7 -> Some Server_error
  | 8 -> Some Backpressure
  | _ -> None

(* --- encoder / decoder primitives ----------------------------------------- *)

(* A growable byte buffer.  Unlike [Buffer.t] it exposes its storage, so a
   frame encoded into it goes to the socket without being copied out. *)
type obuf = { mutable buf : Bytes.t; mutable len : int }

let obuf n = { buf = Bytes.create n; len = 0 }

let reserve o n =
  let need = o.len + n in
  if need > Bytes.length o.buf then begin
    let b = Bytes.create (max need (2 * Bytes.length o.buf)) in
    Bytes.blit o.buf 0 b 0 o.len;
    o.buf <- b
  end

(* the encoded bytes; [o] must not be written to afterwards *)
let contents o =
  if o.len = Bytes.length o.buf then Bytes.unsafe_to_string o.buf
  else Bytes.sub_string o.buf 0 o.len

let put_u8 o v =
  reserve o 1;
  Bytes.unsafe_set o.buf o.len (Char.unsafe_chr (v land 0xff));
  o.len <- o.len + 1

let put_u16 o v =
  put_u8 o (v lsr 8);
  put_u8 o v

let put_u32 o v =
  reserve o 4;
  Xbytes.set_uint32_be o.buf o.len v;
  o.len <- o.len + 4

let put_raw o s =
  let n = String.length s in
  reserve o n;
  Bytes.blit_string s 0 o.buf o.len n;
  o.len <- o.len + n

let put_str o s =
  put_u32 o (String.length s);
  put_raw o s

let put_value o v = put_str o (Value.encode v)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then fail "truncated payload (need %d bytes at %d)" n c.pos

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  let hi = get_u8 c in
  let lo = get_u8 c in
  (hi lsl 8) lor lo

let get_u32 c =
  need c 4;
  let v = Xbytes.get_uint32_be c.data c.pos in
  c.pos <- c.pos + 4;
  v

let get_bytes c n =
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_str c =
  let n = get_u32 c in
  get_bytes c n

let get_value c =
  match Value.decode (get_str c) with Ok v -> v | Error e -> fail "bad value: %s" e

let finished c = if c.pos <> String.length c.data then fail "trailing garbage after payload"

let decoding f s = try Ok (f { data = s; pos = 0 }) with Decode e -> Error e

(* --- operations ------------------------------------------------------------ *)

type req =
  | Ping of string
  | Stats of [ `Text | `Json ]
  | Sql of string
  | Repl_pull of { ack : int; max : int }
      (** replica → primary: "I hold a durable prefix of [ack] records;
          ship me up to [max] more, sealed" *)
  | Repl_root
      (** ask for the Merkle root over the whole database state plus the
          op count it reflects — the replication attestation *)

let op_name = function
  | Ping _ -> "ping"
  | Stats _ -> "stats"
  | Sql _ -> "sql"
  | Repl_pull _ -> "repl_pull"
  | Repl_root -> "repl_root"

let encode_req r =
  let b = obuf 64 in
  (match r with
  | Ping payload ->
      put_u8 b 0x00;
      put_str b payload
  | Stats fmt ->
      put_u8 b 0x01;
      put_u8 b (match fmt with `Text -> 0 | `Json -> 1)
  | Sql stmt ->
      put_u8 b 0x02;
      put_str b stmt
  | Repl_pull { ack; max } ->
      put_u8 b 0x08;
      put_u32 b ack;
      put_u32 b max
  | Repl_root -> put_u8 b 0x09);
  contents b

(* raised past [decoding], so an op byte naming no operation stays
   distinguishable from a malformed payload *)
exception Unknown_op_byte of int

let get_req c =
  let r =
    match get_u8 c with
    | 0x00 -> Ping (get_str c)
    | 0x01 -> (
        match get_u8 c with
        | 0 -> Stats `Text
        | 1 -> Stats `Json
        | n -> fail "unknown stats format %d" n)
    | 0x02 -> Sql (get_str c)
    | 0x08 ->
        let ack = get_u32 c in
        let max = get_u32 c in
        Repl_pull { ack; max }
    | 0x09 -> Repl_root
    | op -> raise (Unknown_op_byte op)
  in
  finished c;
  r

let decode_request s =
  match decoding get_req s with
  | Ok r -> Ok r
  | Error e -> Error (Bad_payload, e)
  | exception Unknown_op_byte op -> Error (Unknown_op, Printf.sprintf "unknown op 0x%02x" op)

let decode_req s = Result.map_error snd (decode_request s)

(* --- responses ------------------------------------------------------------- *)

type resp =
  | Pong of string
  | Stats_dump of string
  | Outcome of Secdb_sql.Engine.outcome
  | Repl_records of { durable : int; records : (int * string) list }
      (** sealed oplog records, each with its sequence number, plus the
          primary's durable count so the replica can see its lag *)
  | Root of { applied : int; root : string }

let put_resp b r =
  match r with
  | Pong payload ->
      put_u8 b 0x00;
      put_str b payload
  | Stats_dump s ->
      put_u8 b 0x01;
      put_str b s
  | Outcome o ->
      put_u8 b 0x02;
      (match o with
      | Secdb_sql.Engine.Rows { columns; rows } ->
          put_u8 b 0;
          put_u16 b (List.length columns);
          List.iter (put_str b) columns;
          put_u32 b (List.length rows);
          List.iter
            (fun row ->
              put_u16 b (List.length row);
              List.iter (put_value b) row)
            rows
      | Secdb_sql.Engine.Affected n ->
          put_u8 b 1;
          put_u32 b n
      | Secdb_sql.Engine.Created -> put_u8 b 2
      | Secdb_sql.Engine.Plan p ->
          put_u8 b 3;
          put_str b p)
  | Repl_records { durable; records } ->
      put_u8 b 0x08;
      put_u32 b durable;
      put_u32 b (List.length records);
      List.iter
        (fun (seq, sealed) ->
          put_u32 b seq;
          put_str b sealed)
        records
  | Root { applied; root } ->
      put_u8 b 0x09;
      put_u32 b applied;
      put_str b root

let encode_resp r =
  let b = obuf 64 in
  put_resp b r;
  contents b

let decode_resp s =
  decoding
    (fun c ->
      let r =
        match get_u8 c with
        | 0x00 -> Pong (get_str c)
        | 0x01 -> Stats_dump (get_str c)
        | 0x02 ->
            Outcome
              (match get_u8 c with
              | 0 ->
                  let ncols = get_u16 c in
                  let columns = List.init ncols (fun _ -> get_str c) in
                  let nrows = get_u32 c in
                  let rows =
                    List.init nrows (fun _ ->
                        let n = get_u16 c in
                        List.init n (fun _ -> get_value c))
                  in
                  Secdb_sql.Engine.Rows { columns; rows }
              | 1 -> Secdb_sql.Engine.Affected (get_u32 c)
              | 2 -> Secdb_sql.Engine.Created
              | 3 -> Secdb_sql.Engine.Plan (get_str c)
              | k -> fail "unknown outcome kind %d" k)
        | 0x08 ->
            let durable = get_u32 c in
            let n = get_u32 c in
            Repl_records
              {
                durable;
                records =
                  List.init n (fun _ ->
                      let seq = get_u32 c in
                      let sealed = get_str c in
                      (seq, sealed));
              }
        | 0x09 ->
            let applied = get_u32 c in
            let root = get_str c in
            Root { applied; root }
        | k -> fail "unknown response kind 0x%02x" k
      in
      finished c;
      r)
    s

(* --- frames ----------------------------------------------------------------- *)

type frame =
  | Hello of { version : int; nonce : string }
  | Challenge of { version : int; nonce : string }
  | Auth of string
  | Auth_ok of string
  | Request of { id : int; body : string; mac : string }
  | Response of { id : int; result : (string, err_code * string) result }
  | Conn_error of { code : err_code; message : string }

(* a Response frame up to its body: tag, id, status, and the error itself *)
let put_response b ~id result put_ok =
  put_u8 b 0x11;
  put_u32 b id;
  match result with
  | Ok x ->
      put_u8 b 0;
      put_ok b x
  | Error (code, message) ->
      put_u8 b 1;
      put_u8 b (err_code_to_int code);
      put_raw b message

let put_frame b = function
  | Hello { version; nonce } ->
      put_u8 b 0x01;
      put_raw b magic;
      put_u16 b version;
      put_raw b nonce
  | Challenge { version; nonce } ->
      put_u8 b 0x02;
      put_u16 b version;
      put_raw b nonce
  | Auth mac ->
      put_u8 b 0x03;
      put_raw b mac
  | Auth_ok mac ->
      put_u8 b 0x04;
      put_raw b mac
  | Request { id; body; mac } ->
      put_u8 b 0x10;
      put_u32 b id;
      put_raw b body;
      put_raw b mac
  | Response { id; result } -> put_response b ~id result put_raw
  | Conn_error { code; message } ->
      put_u8 b 0x12;
      put_u8 b (err_code_to_int code);
      put_raw b message

let frame_size f =
  let n = String.length in
  4 + 1
  +
  match f with
  | Hello { nonce; _ } -> n magic + 2 + n nonce
  | Challenge { nonce; _ } -> 2 + n nonce
  | Auth mac | Auth_ok mac -> n mac
  | Request { body; mac; _ } -> 4 + n body + n mac
  | Response { result = Ok body; _ } -> 4 + 1 + n body
  | Response { result = Error (_, message); _ } -> 4 + 2 + n message
  | Conn_error { message; _ } -> 1 + n message

let frame_to_bytes f =
  let b = obuf (frame_size f - 4) in
  put_frame b f;
  contents b

(* [b] from the start: the length prefix, then whatever [put] writes *)
let framed b put =
  b.len <- 0;
  put_u32 b 0;
  put b;
  Xbytes.set_uint32_be b.buf 0 (b.len - 4)

let get_err_code c =
  let n = get_u8 c in
  match err_code_of_int n with Some e -> e | None -> fail "unknown error code %d" n

let rest c =
  let s = String.sub c.data c.pos (String.length c.data - c.pos) in
  c.pos <- String.length c.data;
  s

let frame_of_bytes s =
  decoding
    (fun c ->
      match get_u8 c with
      | 0x01 ->
          let m = get_bytes c (String.length magic) in
          if m <> magic then fail "bad hello magic";
          let version = get_u16 c in
          let nonce = get_bytes c nonce_len in
          finished c;
          Hello { version; nonce }
      | 0x02 ->
          let version = get_u16 c in
          let nonce = get_bytes c nonce_len in
          finished c;
          Challenge { version; nonce }
      | 0x03 ->
          let mac = get_bytes c transcript_mac_len in
          finished c;
          Auth mac
      | 0x04 ->
          let mac = get_bytes c transcript_mac_len in
          finished c;
          Auth_ok mac
      | 0x10 ->
          let id = get_u32 c in
          let remaining = String.length c.data - c.pos in
          if remaining < request_mac_len then fail "request frame too short for its MAC";
          let body = get_bytes c (remaining - request_mac_len) in
          let mac = get_bytes c request_mac_len in
          Request { id; body; mac }
      | 0x11 ->
          let id = get_u32 c in
          let result =
            match get_u8 c with
            | 0 -> Ok (rest c)
            | 1 ->
                let code = get_err_code c in
                Error (code, rest c)
            | k -> fail "unknown response status %d" k
          in
          Response { id; result }
      | 0x12 ->
          let code = get_err_code c in
          Conn_error { code; message = rest c }
      | t -> fail "unknown frame tag 0x%02x" t)
    s

(* --- session secrets -------------------------------------------------------- *)

let auth_key_of_master master =
  let kr = Secdb.Keyring.open_session ~master in
  Fun.protect
    ~finally:(fun () -> Secdb.Keyring.close_session kr)
    (fun () -> Secdb.Keyring.derive kr ~label:"secdb/net/auth/v1" ~length:32)

let transcript ~label ~client_nonce ~server_nonce = label ^ client_nonce ^ server_nonce

let handshake_mac ~auth_key ~client_nonce ~server_nonce =
  Hmac.mac Hmac.sha256 ~key:auth_key
    (transcript ~label:"secdb-net-client-auth-v1" ~client_nonce ~server_nonce)

let accept_mac ~auth_key ~client_nonce ~server_nonce =
  Hmac.mac Hmac.sha256 ~key:auth_key
    (transcript ~label:"secdb-net-server-accept-v1" ~client_nonce ~server_nonce)

let session_key ~auth_key ~client_nonce ~server_nonce =
  Hmac.mac Hmac.sha256 ~key:auth_key
    (transcript ~label:"secdb-net-session-v1" ~client_nonce ~server_nonce)

(* A session MACs every request under one key, so both ends hoist the
   keyed HMAC (precomputed ipad/opad) for the life of the session. *)
type session_mac = Hmac.keyed

let session_mac ~session_key = Hmac.keyed Hmac.sha256 ~key:session_key

let request_mac_keyed k ~id ~body =
  let b = Bytes.create 4 in
  Xbytes.set_uint32_be b 0 id;
  Hmac.mac_keyed_truncated k ~bytes:request_mac_len ("c2s" ^ Bytes.unsafe_to_string b ^ body)

let request_mac ~session_key ~id ~body = request_mac_keyed (session_mac ~session_key) ~id ~body

(* --- socket I/O -------------------------------------------------------------- *)

type io_error =
  [ `Eof | `Timeout | `Stopped | `Too_large of int | `Bad_frame of string ]

let io_error_to_string = function
  | `Eof -> "connection closed by peer"
  | `Timeout -> "timed out"
  | `Stopped -> "shutting down"
  | `Too_large n -> Printf.sprintf "frame of %d bytes exceeds the limit" n
  | `Bad_frame e -> "bad frame: " ^ e

let slice = 0.25
let no_stop () = false

(* One [select] slice bounded by the caller's deadline; [`Ready] only when
   the descriptor is actually usable. *)
let wait_fd ~stop ~deadline fd ~for_read =
  let rec go () =
    if stop () then Error `Stopped
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then Error `Timeout
      else
        let t = Float.min slice remaining in
        let r, w =
          try
            let r, w, _ =
              if for_read then Unix.select [ fd ] [] [] t else Unix.select [] [ fd ] [] t
            in
            (r, w)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        if (if for_read then r else w) <> [] then Ok () else go ()
  in
  go ()

let read_exact ~stop ~deadline fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off >= len then Ok ()
    else
      match wait_fd ~stop ~deadline fd ~for_read:true with
      | Error _ as e -> e
      | Ok () -> (
          match Unix.read fd buf off (len - off) with
          | 0 -> Error `Eof
          | n -> go (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go off
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Error `Eof)
  in
  go 0

let write_all ~stop ~deadline fd b len =
  let rec go off =
    if off >= len then Ok ()
    else
      match wait_fd ~stop ~deadline fd ~for_read:false with
      | Error _ as e -> e
      | Ok () -> (
          match Unix.write fd b off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go off
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Error `Eof)
  in
  go 0

let read_frame ?(stop = no_stop) ?(max_frame = default_max_frame) ~timeout fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let hdr = Bytes.create 4 in
  match read_exact ~stop ~deadline fd hdr with
  | Error _ as e -> e
  | Ok () -> (
      let len = Xbytes.get_uint32_be (Bytes.unsafe_to_string hdr) 0 in
      if len < 1 then Error (`Bad_frame "zero-length frame")
      else if len > max_frame then Error (`Too_large len)
      else
        let body = Bytes.create len in
        match read_exact ~stop ~deadline fd body with
        | Error _ as e -> e
        | Ok () -> (
            match frame_of_bytes (Bytes.unsafe_to_string body) with
            | Ok f -> Ok f
            | Error e -> Error (`Bad_frame e)))

let write_frame ?(stop = no_stop) ~timeout fd f =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = obuf (frame_size f) in
  framed b (fun b -> put_frame b f);
  write_all ~stop ~deadline fd b.buf b.len

type reply_writer = obuf

let reply_buf_initial = 4096

(* A reply past this size (a Stats dump, a wide SELECT) is written from a
   buffer that is then dropped, so one large reply does not stay pinned
   to an idle connection. *)
let reply_buf_keep = 64 * 1024

let reply_writer () = obuf reply_buf_initial

let encode_reply w ~id result =
  framed w (fun b -> put_response b ~id result put_resp);
  w.len

let send_reply ?(stop = no_stop) ~timeout w fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let r = write_all ~stop ~deadline fd w.buf w.len in
  if Bytes.length w.buf > reply_buf_keep then w.buf <- Bytes.create reply_buf_initial;
  w.len <- 0;
  r

(* --- addresses ---------------------------------------------------------------- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_addr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith ("cannot resolve host " ^ host))
      in
      Unix.ADDR_INET (ip, port)
