(* The load generator: one process, two connections, at most two busy
   threads.  Set-up and the closed loop ride {!Client} with a window of 32;
   the open loop is a single thread that selects over two connections it
   authenticated itself with the public {!Wire} functions, so a slow reply
   on one connection never delays a due send on the other. *)

module Wire = Secdb_net.Wire
module Client = Secdb_net.Client
module Engine = Secdb_sql.Engine

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let timeout = 30.
let window = 32

(* A measured request counts as answered only with the kind of result its
   statement must produce: rows for a query, one affected row for a write. *)
let answer_ok (st : Gen.stmt) = function
  | Ok (Wire.Outcome (Engine.Rows _)) -> not st.write
  | Ok (Wire.Outcome (Engine.Affected 1)) -> st.write
  | Ok _ | Error _ -> false

let connect ~auth_key addr =
  match Client.connect ~attempts:14 ~backoff:0.005 ~auth_key addr with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

(* Run [f 0] and [f 1] on two threads, one per connection; a failure in
   either is re-raised here. *)
let on_both f =
  let out = Array.make 2 (Error Exit) in
  let run i () = out.(i) <- (try Ok (f i) with e -> Error e) in
  List.iter Thread.join (List.init 2 (fun i -> Thread.create (run i) ()));
  Array.map (function Ok x -> x | Error e -> raise e) out

(* --- set-up --------------------------------------------------------------- *)

(* Both connections load their own tables in parallel, then connection 0
   builds the indexes.  Returns the number of statements that failed. *)
let load clients (setup : Gen.setup) =
  let run c stmts =
    Client.pipeline ~window c (List.map (fun (st : Gen.stmt) -> Wire.Sql st.sql) stmts)
    |> List.filter (function Ok (Wire.Outcome _) -> false | _ -> true)
    |> List.length
  in
  let failed = on_both (fun i -> run clients.(i) setup.load.(i)) in
  failed.(0) + failed.(1) + run clients.(0) setup.indexes

(* --- open loop ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mac : Wire.session_mac; mutable next_id : int }

let expect what = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "open loop: %s: %s" what (Wire.io_error_to_string e))

let handshake ~auth_key ~rng addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Wire.sockaddr_of_addr addr);
  let client_nonce = Secdb_util.Rng.bytes rng 16 in
  expect "hello"
    (Wire.write_frame ~timeout fd
       (Wire.Hello { version = Wire.protocol_version; nonce = client_nonce }));
  match expect "challenge" (Wire.read_frame ~timeout fd) with
  | Wire.Challenge { nonce = server_nonce; _ } -> (
      expect "auth"
        (Wire.write_frame ~timeout fd
           (Wire.Auth (Wire.handshake_mac ~auth_key ~client_nonce ~server_nonce)));
      match expect "auth reply" (Wire.read_frame ~timeout fd) with
      | Wire.Auth_ok mac when mac = Wire.accept_mac ~auth_key ~client_nonce ~server_nonce ->
          let session_key = Wire.session_key ~auth_key ~client_nonce ~server_nonce in
          { fd; mac = Wire.session_mac ~session_key; next_id = 1 }
      | _ -> failwith "open loop: the server did not authenticate")
  | _ -> failwith "open loop: expected a challenge"

let send c sql =
  let id = c.next_id in
  c.next_id <- id + 1;
  let body = Wire.encode_req (Wire.Sql sql) in
  let mac = Wire.request_mac_keyed c.mac ~id ~body in
  expect "send" (Wire.write_frame ~timeout c.fd (Wire.Request { id; body; mac }));
  id

let recv c =
  match expect "receive" (Wire.read_frame ~timeout c.fd) with
  | Wire.Response { id; result = Ok body } ->
      (id, Result.map_error (fun e -> (Wire.Frame, e)) (Wire.decode_resp body))
  | Wire.Response { id; result = Error e } -> (id, Error e)
  | _ -> failwith "open loop: unexpected frame"

(* What one phase of either loop yields. *)
type phase = {
  lat_ms : float list;  (** open loop: each answered request, from its due time *)
  late_ms : float list;  (** open loop: how late each send left against its schedule *)
  attempted : int;
  failed : int;
  in_window : int;  (** closed loop: requests answered before the window closed *)
  acked : Gen.stmt list array;  (** acknowledged writes per connection, in apply order *)
}

(* Offer [rate] req/s for [seconds], alternating between the two
   connections on a fixed schedule.  Each request is timed from when it
   was due, so a stall also charges the requests queued behind it. *)
let open_loop ~auth_key ~rng addr streams ~rate ~seconds =
  let conns = Array.init 2 (fun _ -> handshake ~auth_key ~rng addr) in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns) @@ fun () ->
  let n = max 1 (int_of_float (rate *. seconds)) in
  let reqs = Array.init n (fun i -> Gen.next streams.(i land 1)) in
  let period = 1. /. rate in
  let inflight = Array.init 2 (fun _ -> Hashtbl.create 64) in
  let lat = ref [] and late = ref [] and failed = ref 0 in
  let acked = Array.make 2 [] in
  let sent = ref 0 and outstanding = ref 0 in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float_of_int i *. period) in
  let give_up = t0 +. seconds +. timeout in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while (!sent < n || !outstanding > 0) && now () < give_up do
    (* send what is due, a bounded burst at a time so replies keep draining *)
    let burst = ref 0 in
    while !sent < n && !burst < 16 && due !sent <= now () do
      let i = !sent in
      let c = i land 1 in
      let id = send conns.(c) reqs.(i).Gen.sql in
      late := ((now () -. due i) *. 1e3) :: !late;
      Hashtbl.replace inflight.(c) id i;
      incr sent;
      incr outstanding;
      incr burst
    done;
    let wait =
      if !sent < n then Float.max 0. (due !sent -. now ()) else Float.max 0. (give_up -. now ())
    in
    let ready, _, _ =
      try Unix.select fds [] [] wait with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let c = if fd = conns.(0).fd then 0 else 1 in
        let id, result = recv conns.(c) in
        let t = now () in
        match Hashtbl.find_opt inflight.(c) id with
        | None -> failwith "open loop: reply to an unknown request"
        | Some i ->
            Hashtbl.remove inflight.(c) id;
            decr outstanding;
            let st = reqs.(i) in
            if answer_ok st result then begin
              lat := ((t -. due i) *. 1e3) :: !lat;
              if st.write then acked.(c) <- st :: acked.(c)
            end
            else incr failed)
      ready
  done;
  {
    lat_ms = !lat;
    late_ms = !late;
    attempted = n;
    failed = !failed + !outstanding + (n - !sent);
    in_window = 0;
    acked = Array.map List.rev acked;
  }

(* --- closed loop ---------------------------------------------------------- *)

(* Each connection keeps [window] requests outstanding for [seconds] —
   {!Client.pipeline}'s window discipline, bounded by time instead of by a
   list — then drains.  Throughput counts the replies that arrived inside
   the window, so the drain does not dilute it. *)
let closed_loop clients streams ~seconds =
  let deadline = now () +. seconds in
  let worker i =
    let c = clients.(i) in
    let inflight = Queue.create () in
    let attempted = ref 0 and failed = ref 0 and in_window = ref 0 and acked = ref [] in
    let finish () =
      let id, st = Queue.pop inflight in
      if answer_ok st (Client.await c id) then begin
        if now () <= deadline then incr in_window;
        if st.Gen.write then acked := st :: !acked
      end
      else incr failed
    in
    while now () < deadline do
      if Queue.length inflight >= window then finish ();
      let st = Gen.next streams.(i) in
      incr attempted;
      match Client.post c (Wire.Sql st.sql) with
      | Ok id -> Queue.push (id, st) inflight
      | Error e -> failwith ("closed loop: " ^ Client.error_to_string e)
    done;
    while not (Queue.is_empty inflight) do
      finish ()
    done;
    (!attempted, !failed, !in_window, List.rev !acked)
  in
  let results = on_both worker in
  let sum f = Array.fold_left (fun n r -> n + f r) 0 results in
  {
    lat_ms = [];
    late_ms = [];
    attempted = sum (fun (a, _, _, _) -> a);
    failed = sum (fun (_, f, _, _) -> f);
    in_window = sum (fun (_, _, w, _) -> w);
    acked = Array.map (fun (_, _, _, a) -> a) results;
  }
