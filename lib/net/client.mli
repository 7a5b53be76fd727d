(** Blocking secdb network client.

    A connection authenticates with the {!Wire} challenge–response
    handshake (mutual: the server must also prove possession of the
    derived credential before any request is sent), then issues
    requests.  Requests may be pipelined: {!post} assigns a request id
    and writes the frame without waiting, {!await} collects a specific
    response, and out-of-order arrivals are parked until asked for.
    {!call} is the one-shot convenience. *)

type t

type error =
  | Io of Wire.io_error  (** transport-level failure; the connection is dead *)
  | Conn of Wire.err_code * string
      (** structured connection-level error from the server; connection closed *)
  | Remote of Wire.err_code * string  (** per-request structured error; connection survives *)
  | Protocol of string  (** the peer violated the wire protocol *)

val error_to_string : error -> string

val connect :
  ?attempts:int ->
  ?backoff:float ->
  ?timeout:float ->
  ?max_frame:int ->
  ?seed:int64 ->
  auth_key:string ->
  Wire.addr ->
  (t, string) result
(** Connect and authenticate, retrying up to [attempts] times (default
    5) with doubling [backoff] (default 0.05s).  A retry covers any
    transient failure in the dial {e or} the handshake — connection
    refused, timeout, short read while the server drains or restarts —
    each on a fresh socket; a replica reconnecting to a restarting
    primary rides exactly this loop.  An explicit refusal (wrong
    credential, protocol mismatch) fails immediately without consuming
    the remaining attempts.  [auth_key] is the
    {!Wire.auth_key_of_master} credential; [timeout] (default 30s)
    bounds every frame read and write. *)

val post : t -> Wire.req -> (int, error) result
(** Send a request without waiting; returns its request id. *)

val await : t -> int -> (Wire.resp, error) result
(** Block until the response for that id arrives.  Responses to other
    in-flight ids received meanwhile are retained for their own
    {!await}. *)

val call : t -> Wire.req -> (Wire.resp, error) result
(** [post] then [await]. *)

val pipeline :
  ?window:int -> ?corrupt:bool -> t -> Wire.req list -> (Wire.resp, error) result list
(** Post the requests back-to-back with at most [window] (default 32)
    outstanding, awaiting the oldest response before posting past the
    window; one result per request, in request order.  The window keeps
    long bursts from deadlocking against the kernel socket buffers: an
    unbounded burst stops reading responses while it posts, the server's
    writer fills the peer buffer and blocks, its reader stops draining
    the burst, and both ends sit in their timeouts.  [corrupt] (default
    false) posts every request as {!post_corrupted} does. *)

val ping : t -> (float, error) result
(** Round-trip a [Ping] and return the elapsed seconds. *)

val post_corrupted : t -> Wire.req -> (int, error) result
(** Test hook: send a request whose MAC trailer has one bit flipped, to
    exercise the server's tamper rejection. *)

val close : t -> unit
(** Idempotent. *)
