(** The secdb wire protocol: length-framed binary messages over a stream
    socket, with an HMAC-SHA256 challenge–response session handshake.

    {2 Frame grammar}

    Every message is one frame: [[len:4 BE][tag:1][body:len-1]], where
    [len] counts the tag byte plus the body ([1 <= len <= max_frame]).
    Handshake frames carry nonces and transcript MACs; request frames
    carry a client-assigned request id (so calls can be pipelined and
    responses matched out of band) and a per-session MAC trailer;
    response and error frames are structured, never free text the client
    must pattern-match.

    {2 Trust model}

    Authentication is driven by {!Secdb.Keyring}: both ends derive
    [auth_key] from the master key by labelled HMAC
    ({!auth_key_of_master}), and the handshake proves possession of that
    derived credential by MACing the session transcript (both nonces).
    The master key itself never crosses the wire, and the server-side
    library only ever holds the derived verifier — matching the paper's
    trusted-client/untrusted-server split. *)

val protocol_version : int
val magic : string
(** First bytes of every [Hello] body; lets a server reject a stray
    client of some other protocol with a structured error. *)

val default_max_frame : int
(** 1 MiB. *)

(** {1 Structured errors} *)

type err_code =
  | Auth  (** handshake or request MAC failed verification *)
  | Frame  (** malformed or unexpected frame *)
  | Too_large  (** frame length exceeds the receiver's [max_frame] *)
  | Unknown_op
      (** the request body's first byte names no operation — including
          the retired 0x03–0x07; the connection stays open *)
  | Bad_payload  (** request decoded to no valid operation payload *)
  | App  (** the database reported an error (integrity failure, bad SQL) *)
  | Server_error  (** unexpected exception inside the server *)
  | Backpressure  (** too many requests in flight *)

val err_code_to_string : err_code -> string
val err_code_to_int : err_code -> int
val err_code_of_int : int -> err_code option

(** {1 Operations} *)

type req =
  | Ping of string  (** echo *)
  | Stats of [ `Text | `Json ]  (** server-side metric registry dump *)
  | Sql of string  (** one SQL statement: the only data-plane request *)
  | Repl_pull of { ack : int; max : int }
      (** replica → primary: "my durable prefix holds [ack] records; ship
          up to [max] more, sealed" — the ack doubles as the resume point,
          so the primary keeps no per-replica state *)
  | Repl_root
      (** ask any node for the Merkle root over its full database state
          and the op count it reflects — the replication attestation *)

val op_name : req -> string
(** Stable lowercase name, used as the metric label. *)

type resp =
  | Pong of string
  | Stats_dump of string
  | Outcome of Secdb_sql.Engine.outcome
  | Repl_records of { durable : int; records : (int * string) list }
      (** sealed oplog records (sequence number, raw bytes) in order,
          plus the primary's durable count so a replica can see its lag *)
  | Root of { applied : int; root : string }
      (** attestation: Merkle root over per-shard digests at [applied] ops *)

val encode_req : req -> string
val decode_req : string -> (req, string) result

val decode_request : string -> (req, err_code * string) result
(** {!decode_req} with the error classified as the server replies it:
    [Unknown_op] when the first byte names no operation, [Bad_payload]
    for any other malformed body. *)

val encode_resp : resp -> string
val decode_resp : string -> (resp, string) result

(** {1 Frames} *)

type frame =
  | Hello of { version : int; nonce : string }  (** client opener; 16-byte nonce *)
  | Challenge of { version : int; nonce : string }  (** server's 16-byte nonce *)
  | Auth of string  (** client transcript MAC (32 bytes) *)
  | Auth_ok of string  (** server transcript MAC (32 bytes): mutual auth *)
  | Request of { id : int; body : string; mac : string }
      (** [body] is an {!encode_req} result; [mac] is {!request_mac} (16 bytes) *)
  | Response of { id : int; result : (string, err_code * string) result }
      (** [Ok body] carries an {!encode_resp} result *)
  | Conn_error of { code : err_code; message : string }
      (** connection-level failure, not tied to a request id *)

val frame_to_bytes : frame -> string
(** Tag byte plus body — everything after the length prefix. *)

val frame_of_bytes : string -> (frame, string) result

val frame_size : frame -> int
(** Size on the wire including the 4-byte length prefix, computed from
    the field lengths without encoding the frame. *)

(** {1 Session secrets}

    All MACs are HMAC-SHA256 with distinct domain-separation labels. *)

val auth_key_of_master : string -> string
(** 32-byte session-authentication credential derived from the master key
    through {!Secdb.Keyring.derive}.  This is what a server is configured
    with; it cannot be inverted to the master. *)

val handshake_mac : auth_key:string -> client_nonce:string -> server_nonce:string -> string
(** Client's proof over the handshake transcript (32 bytes). *)

val accept_mac : auth_key:string -> client_nonce:string -> server_nonce:string -> string
(** Server's proof (domain-separated from {!handshake_mac}). *)

val session_key : auth_key:string -> client_nonce:string -> server_nonce:string -> string
(** Per-session request-MAC key; fresh for every handshake. *)

val request_mac : session_key:string -> id:int -> body:string -> string
(** 16-byte MAC binding a request frame to the session and its id.
    Equivalent to [request_mac_keyed (session_mac ~session_key)]. *)

type session_mac
(** The session-key HMAC with its per-key preprocessing hoisted; derive
    once per handshake and reuse for every request on the session. *)

val session_mac : session_key:string -> session_mac

val request_mac_keyed : session_mac -> id:int -> body:string -> string
(** Same MAC as {!request_mac}, without the per-call key setup. *)

(** {1 Socket I/O}

    Blocking frame transport with a deadline.  Reads and writes proceed
    in short [select] slices so a [stop] thunk (the server's shutdown
    flag) is honoured promptly even while blocked. *)

type io_error =
  [ `Eof  (** peer closed *)
  | `Timeout  (** deadline elapsed before the frame completed *)
  | `Stopped  (** the [stop] thunk returned true *)
  | `Too_large of int  (** announced frame length; nothing was consumed after the prefix *)
  | `Bad_frame of string ]

val io_error_to_string : io_error -> string

val read_frame :
  ?stop:(unit -> bool) ->
  ?max_frame:int ->
  timeout:float ->
  Unix.file_descr ->
  (frame, io_error) result

val write_frame :
  ?stop:(unit -> bool) -> timeout:float -> Unix.file_descr -> frame -> (unit, io_error) result
(** Encodes the frame once, length prefix included, into a buffer of
    exactly {!frame_size} bytes and writes it. *)

type reply_writer
(** One connection's reusable reply buffer, owned by the thread that
    writes that connection's replies. *)

val reply_writer : unit -> reply_writer

val encode_reply : reply_writer -> id:int -> (resp, err_code * string) result -> int
(** Encode [Response { id; result = Result.map encode_resp result }],
    length prefix included, once and straight into the writer's buffer —
    no intermediate body string.  Returns its size on the wire. *)

val send_reply :
  ?stop:(unit -> bool) -> timeout:float -> reply_writer -> Unix.file_descr -> (unit, io_error) result
(** Write the reply {!encode_reply} staged: exactly the bytes
    {!write_frame} would put on the wire for the same frame.  A buffer
    that grew past a fixed bound for a large reply is dropped afterwards. *)

(** {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val sockaddr_of_addr : addr -> Unix.sockaddr
