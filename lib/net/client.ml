module Rng = Secdb_util.Rng
module Xbytes = Secdb_util.Xbytes

type t = {
  fd : Unix.file_descr;
  session_mac : Wire.session_mac;
  timeout : float;
  max_frame : int;
  mutable next_id : int;
  pending : (int, (string, Wire.err_code * string) result) Hashtbl.t;
  mutable closed : bool;
}

type error =
  | Io of Wire.io_error
  | Conn of Wire.err_code * string
  | Remote of Wire.err_code * string
  | Protocol of string

let error_to_string = function
  | Io e -> "io: " ^ Wire.io_error_to_string e
  | Conn (c, m) -> Printf.sprintf "connection error [%s]: %s" (Wire.err_code_to_string c) m
  | Remote (c, m) -> Printf.sprintf "server error [%s]: %s" (Wire.err_code_to_string c) m
  | Protocol m -> "protocol violation: " ^ m

let default_seed () =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.of_int ((Unix.getpid () * 2654435761) + 1))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* One handshake attempt over a freshly connected socket.  Failures are
   classified so the dial loop can tell a server that is merely slow or
   restarting ([`Io]: timeout, short read, peer hung up mid-drain — retry
   with a fresh socket) from one that answered and said no ([`Refused]:
   wrong credential, protocol mismatch — retrying cannot help). *)
let authenticate ~auth_key ~timeout ~max_frame ~rng fd =
  let close_fd () = try Unix.close fd with Unix.Unix_error _ -> () in
  let fail msg =
    close_fd ();
    Error (`Refused msg)
  in
  let io_fail stage e =
    close_fd ();
    let msg = stage ^ ": " ^ Wire.io_error_to_string e in
    match e with
    | `Eof | `Timeout | `Stopped -> Error (`Io msg)
    | `Too_large _ | `Bad_frame _ -> Error (`Refused msg)
  in
  let client_nonce = Rng.bytes rng 16 in
  match
    Wire.write_frame ~timeout fd (Wire.Hello { version = Wire.protocol_version; nonce = client_nonce })
  with
  | Error e -> io_fail "hello" e
  | Ok () -> (
      match Wire.read_frame ~max_frame ~timeout fd with
      | Error e -> io_fail "challenge" e
      | Ok (Wire.Conn_error { code; message }) ->
          fail (Printf.sprintf "rejected [%s]: %s" (Wire.err_code_to_string code) message)
      | Ok (Wire.Challenge { version; nonce = server_nonce }) -> (
          if version <> Wire.protocol_version then
            fail (Printf.sprintf "server speaks protocol version %d" version)
          else
            let mac = Wire.handshake_mac ~auth_key ~client_nonce ~server_nonce in
            match Wire.write_frame ~timeout fd (Wire.Auth mac) with
            | Error e -> io_fail "auth" e
            | Ok () -> (
                match Wire.read_frame ~max_frame ~timeout fd with
                | Error e -> io_fail "auth reply" e
                | Ok (Wire.Conn_error { code; message }) ->
                    fail
                      (Printf.sprintf "authentication refused [%s]: %s"
                         (Wire.err_code_to_string code) message)
                | Ok (Wire.Auth_ok server_mac) ->
                    let expected = Wire.accept_mac ~auth_key ~client_nonce ~server_nonce in
                    if Xbytes.constant_time_equal server_mac expected then
                      Ok (Wire.session_key ~auth_key ~client_nonce ~server_nonce)
                    else fail "server failed mutual authentication"
                | Ok _ -> fail "expected auth-ok"))
      | Ok _ -> fail "expected a challenge")

let connect ?(attempts = 5) ?(backoff = 0.05) ?(timeout = 30.) ?(max_frame = Wire.default_max_frame)
    ?seed ~auth_key addr =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let rng = Rng.create ~seed () in
  let sockaddr = Wire.sockaddr_of_addr addr in
  let domain = match addr with Wire.Unix_sock _ -> Unix.PF_UNIX | Wire.Tcp _ -> Unix.PF_INET in
  (* One attempt = dial + handshake.  A transient failure anywhere in
     that pair — connection refused, or an I/O hiccup mid-handshake while
     the server restarts or drains — retries on a fresh socket with the
     same backoff; an explicit refusal (bad credential, protocol
     mismatch) fails immediately, no matter how many attempts remain. *)
  let attempt () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (`Io (Printf.sprintf "connect %s: %s" (Wire.addr_to_string addr) (Unix.error_message e)))
    | () -> (
        match authenticate ~auth_key ~timeout ~max_frame ~rng fd with
        | Error _ as e -> e
        | Ok session_key -> Ok (fd, session_key))
  in
  let rec go n delay =
    match attempt () with
    | Ok (fd, session_key) ->
        (* hoisted for the session: every request reuses the keyed MAC *)
        let session_mac = Wire.session_mac ~session_key in
        Ok { fd; session_mac; timeout; max_frame; next_id = 1; pending = Hashtbl.create 8; closed = false }
    | Error (`Refused msg) -> Error msg
    | Error (`Io msg) ->
        if n <= 1 then Error msg
        else begin
          (try Thread.delay delay with _ -> ());
          go (n - 1) (delay *. 2.)
        end
  in
  go (max 1 attempts) backoff

let send_request t ~corrupt req =
  if t.closed then Error (Protocol "connection is closed")
  else begin
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    let body = Wire.encode_req req in
    let mac = Wire.request_mac_keyed t.session_mac ~id ~body in
    let mac =
      if not corrupt then mac
      else begin
        let b = Bytes.of_string mac in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
        Bytes.to_string b
      end
    in
    match Wire.write_frame ~timeout:t.timeout t.fd (Wire.Request { id; body; mac }) with
    | Ok () -> Ok id
    | Error e ->
        close t;
        Error (Io e)
  end

let post t req = send_request t ~corrupt:false req
let post_corrupted t req = send_request t ~corrupt:true req

let decode_result wanted = function
  | Error (code, msg) -> Error (Remote (code, msg))
  | Ok body -> (
      match Wire.decode_resp body with
      | Ok resp -> Ok resp
      | Error e -> Error (Protocol (Printf.sprintf "response %d: %s" wanted e)))

let await t wanted =
  match Hashtbl.find_opt t.pending wanted with
  | Some result ->
      Hashtbl.remove t.pending wanted;
      decode_result wanted result
  | None ->
      if t.closed then Error (Protocol "connection is closed")
      else
        let rec read () =
          match Wire.read_frame ~max_frame:t.max_frame ~timeout:t.timeout t.fd with
          | Error e ->
              close t;
              Error (Io e)
          | Ok (Wire.Response { id; result }) ->
              if id = wanted then decode_result wanted result
              else begin
                Hashtbl.replace t.pending id result;
                read ()
              end
          | Ok (Wire.Conn_error { code; message }) ->
              close t;
              Error (Conn (code, message))
          | Ok _ ->
              close t;
              Error (Protocol "unexpected frame while awaiting a response")
        in
        read ()

let call t req =
  match post t req with Error _ as e -> e | Ok id -> await t id

let pipeline ?(window = 32) ?(corrupt = false) t reqs =
  (* Posting an unbounded burst before reading anything deadlocks once the
     responses overflow the receive buffer: the server's writer blocks on
     us, its reader stops draining our posts, and both sides sit in their
     timeouts.  Keep at most [window] requests outstanding — await the
     oldest before posting past the window — so responses drain while the
     burst is still being written. *)
  let window = max 1 window in
  let results = Queue.create () in
  let inflight = Queue.create () in
  let finish_oldest () =
    Queue.push
      (match Queue.pop inflight with Error _ as e -> e | Ok id -> await t id)
      results
  in
  List.iter
    (fun req ->
      if Queue.length inflight >= window then finish_oldest ();
      Queue.push (send_request t ~corrupt req) inflight)
    reqs;
  while not (Queue.is_empty inflight) do
    finish_oldest ()
  done;
  List.of_seq (Queue.to_seq results)

let ping t =
  let t0 = Unix.gettimeofday () in
  match call t (Wire.Ping "ping") with
  | Ok (Wire.Pong "ping") -> Ok (Unix.gettimeofday () -. t0)
  | Ok _ -> Error (Protocol "pong payload mismatch")
  | Error _ as e -> e
