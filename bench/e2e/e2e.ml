(* End-to-end wire benchmark for [secdb serve].

     dune build && dune exec bench/e2e/e2e.exe -- --seed 1
     bash bench/e2e/run.sh --workload point-lookup --seed 1 --seconds 10 --trace 0

   For each workload and round it spawns the shipped [secdb_cli serve] as a
   durable primary on a fresh directory, loads and indexes the dataset,
   offers two open-loop rates and runs a closed loop from one process over
   two authenticated connections, then checks every answer of a fixed
   verification set byte for byte against an in-process reference fed the
   same acknowledged statements.  A traced pass then splits one request
   into the time spent in each layer.  See README.md for the metrics. *)

module Wire = Secdb_net.Wire
module Client = Secdb_net.Client
module Server = Secdb_net.Server
module Repl = Secdb_net.Repl
module Parser = Secdb_sql.Parser
module Ast = Secdb_sql.Ast
module Shard = Secdb_db.Shard
module Oplog = Secdb.Oplog
module Obs = Secdb_obs.Obs

let now = Loadgen.now
let ( // ) = Filename.concat
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- options -------------------------------------------------------------- *)

let usage =
  "e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] \
   [--smoke] [--cli PATH]"

let workload = ref "all"
let seed = ref 1
let seconds = ref 40.
let trace = ref (-1)
let trace_out = ref ""
let smoke = ref false
let cli = ref ("_build" // "default" // "bin" // "secdb_cli.exe")

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  seed for every generated value (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload and run (default 40)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end rounds (0) or traced pass (1) only");
      ("--trace-out", Arg.Set_string trace_out, "FILE  write the traced pass's spans as JSONL");
      ("--smoke", Arg.Set smoke, " 1,000 rows, 1 s windows, one round");
      ("--cli", Arg.Set_string cli, "PATH  the secdb_cli binary to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let rows = if !smoke then 1_000 else 20_000
let rounds = if !smoke then 1 else 3
let trace_n = if !smoke then 100 else 500

(* A round gives 3/8 of its time to [lo], 3/8 to [hi] and 2/8 to the
   closed loop (5 s / 5 s / 3.3 s in a default run), cycled in segments of
   about 0.8 s.  On a shared host the same work can take twice as long
   from one second to the next; a round reports its best segment, so the
   numbers follow the system rather than the neighbours. *)
let per_round = (if !smoke then 8. /. 3. else !seconds) /. float_of_int rounds
let segments = max 1 (Float.to_int (Float.round (per_round /. 0.8)))
let lo_s = per_round *. 3. /. 8. /. float_of_int segments
let hi_s = lo_s
let closed_s = per_round *. 2. /. 8. /. float_of_int segments

let workloads =
  if !workload = "all" then Gen.all
  else
    match Gen.of_name !workload with
    | Some w -> [ w ]
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2

let shards = Secdb_util.Pool.recommended ()
let auth_key = Wire.auth_key_of_master Replay.master

(* --- host and provenance -------------------------------------------------- *)

(* Kernel CTR over 1 MiB: a fixed CPU-bound unit of work, so a run on a
   busier or slower host shows up next to its numbers. *)
let calib_ms =
  let aes = Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'c') in
  let data = String.make (1 lsl 20) 'x' and nonce = String.make 16 'n' in
  fun () ->
    let t0 = now () in
    ignore (Secdb_modes.Mode.ctr aes ~nonce data);
    (now () -. t0) *. 1e3

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_commit () =
  let trim = String.trim in
  try
    let head = trim (read_file (".git" // "HEAD")) in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" -> (
        let r = String.sub head (i + 1) (String.length head - i - 1) in
        try trim (read_file (".git" // r))
        with Sys_error _ ->
          read_file (".git" // "packed-refs")
          |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with [ h; n ] when n = r -> Some h | _ -> None)
          |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown (not a git checkout)"

(* --- scratch directories and the server process --------------------------- *)

(* Everything a run writes lives under one directory in the working
   directory, removed at exit.  Socket paths stay relative, well under the
   108-byte limit whatever the checkout path. *)
let root = ".bench_e2e" // string_of_int (Unix.getpid ())

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  at_exit (fun () ->
      rm_rf root;
      try Unix.rmdir ".bench_e2e" with Unix.Unix_error _ -> ())

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d = root // Printf.sprintf "%s-%d" tag !k in
    List.iter (fun p -> try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
      [ ".bench_e2e"; root; d ];
    d

type server = { pid : int; addr : Wire.addr; oplog : string; mutable alive : bool }

(* [secdb_cli serve] as deployed: a primary with an oplog under the
   default [Always] flush, the default profile (fixed-EAX) and shard count
   (the recommended domain count), obs on. *)
let spawn dir =
  let sock = dir // "s.sock" and oplog = dir // "op.log" in
  let out =
    Unix.openfile (dir // "server.out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () ->
        Unix.create_process !cli
          [| !cli; "serve"; "-a"; "unix:" ^ sock; "--oplog"; oplog; "--seed"; "7" |]
          Unix.stdin out out)
  in
  { pid; addr = Wire.Unix_sock sock; oplog; alive = true }

let rec wait_pid pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let stop ?(signal = Sys.sigterm) s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
    wait_pid s.pid
  end

let with_server dir f =
  let s = spawn dir in
  Fun.protect ~finally:(fun () -> stop ~signal:Sys.sigkill s) (fun () -> f s)

(* Peak resident set of the server, from /proc. *)
let vm_hwm_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> function Some mb -> mb | None -> failwith "no VmHWM in /proc status"

let connect2 s = Array.init 2 (fun _ -> Loadgen.connect ~auth_key s.addr)

(* Spawn, load, index: the set-up a round pays before it measures. *)
let set_up dir (setup : Gen.setup) f =
  let t0 = now () in
  with_server dir (fun s ->
      let clients = connect2 s in
      let failed = Loadgen.load clients setup in
      let setup_s = now () -. t0 in
      Array.iter Client.close clients;
      if failed > 0 then failwith (Printf.sprintf "set-up: %d statement(s) failed" failed);
      f s setup_s)

(* --- the in-process reference --------------------------------------------- *)

(* Shard databases built as [serve] builds them, fed the set-up and every
   acknowledged write in the order the server applied them. *)
let reference stmts =
  let dbs = Array.init shards Replay.shard_db in
  let run sql =
    let db =
      match Parser.parse sql with
      | Ok stmt -> dbs.(Shard.key_index ~shards (Ast.stmt_table stmt))
      | Error _ -> dbs.(0)
    in
    Server.dispatch db (Wire.Sql sql)
  in
  List.iter
    (fun (st : Gen.stmt) ->
      match run st.sql with Ok _ -> () | Error (_, e) -> failwith ("reference: " ^ e))
    stmts;
  run

(* A reply as bytes: [Wire.encode_resp] of an answer, or the structured
   error. *)
let reply_bytes = function
  | Ok r -> "ok " ^ Wire.encode_resp r
  | Error (code, msg) -> Printf.sprintf "error %s %s" (Wire.err_code_to_string code) msg

let wire_reply = function
  | Ok r -> Ok r
  | Error (Client.Remote (code, msg)) -> Error (code, msg)
  | Error e -> Error (Wire.Server_error, Client.error_to_string e)

(* --- one end-to-end round ------------------------------------------------- *)

type round = {
  setup_s : float;
  lo : Loadgen.phase list;  (** one per segment *)
  hi : Loadgen.phase list;
  closed : Loadgen.phase list;
  rss_mb : float;
  amplification : float;
  verify_failed : int;
  verified : int;
  durable : (int * int) option;  (** oplog records recovered after kill -9, and expected *)
  calib : float;
  check_s : float;  (** verification, shutdown and the reference, after the measured time *)
}

let p50 lats = Stats.percentile (Stats.sorted lats) 50.

(* A round's best segment: the lowest per-segment p50, the highest
   per-segment closed-loop rate. *)
let best_p50 segs =
  List.fold_left
    (fun m (p : Loadgen.phase) -> if p.lat_ms = [] then m else Float.min m (p50 p.lat_ms))
    infinity segs

let best_throughput segs =
  List.fold_left
    (fun m (p : Loadgen.phase) -> Float.max m (float_of_int p.in_window /. closed_s))
    0. segs

let round wl ds ~k ~last =
  let calib = calib_ms () in
  let setup = Gen.setup wl ~seed:!seed ds in
  set_up (fresh_dir (Gen.name wl)) setup @@ fun s setup_s ->
  let streams = Array.init 2 (fun conn -> Gen.stream wl ds ~seed:!seed ~tag:("round", k) ~conn) in
  let rng = Secdb_util.Rng.create ~seed:(Int64.of_int k) () in
  let lo_rate, hi_rate = Gen.rates wl in
  let rec run n acc =
    if n = 0 then List.rev acc
    else
      let lo = Loadgen.open_loop ~auth_key ~rng s.addr streams ~rate:lo_rate ~seconds:lo_s in
      let hi = Loadgen.open_loop ~auth_key ~rng s.addr streams ~rate:hi_rate ~seconds:hi_s in
      let clients = connect2 s in
      let closed =
        Fun.protect
          ~finally:(fun () -> Array.iter Client.close clients)
          (fun () -> Loadgen.closed_loop clients streams ~seconds:closed_s)
      in
      run (n - 1) ((lo, hi, closed) :: acc)
  in
  let segs = run segments [] in
  let t_check = now () in
  let checks = Gen.verification wl ds ~seed:!seed in
  let got =
    let c = Loadgen.connect ~auth_key s.addr in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Client.pipeline ~window:Loadgen.window c
          (List.map (fun (q : Gen.stmt) -> Wire.Sql q.sql) checks))
  in
  let rss_mb = vm_hwm_mb s.pid in
  (* each connection's acknowledged writes, in the order it sent them *)
  let acked conn =
    List.concat_map
      (fun (lo, hi, closed) ->
        List.concat_map (fun (p : Loadgen.phase) -> p.acked.(conn)) [ lo; hi; closed ])
      segs
  in
  let written = Gen.setup_stmts setup @ acked 0 @ acked 1 in
  (* kill -9 leaves the page cache alone: this checks that an acked write
     was appended to the log before its reply, not that the device flushed *)
  let durable =
    if wl = Gen.Insert_durable && last then begin
      stop ~signal:Sys.sigkill s;
      match Oplog.recover ~path:s.oplog ~aead:(Repl.log_aead ~master:Replay.master) () with
      | Ok (ops, _) -> Some (List.length ops, List.length written)
      | Error e -> failwith ("durability: " ^ e)
    end
    else begin
      stop s;
      None
    end
  in
  let log_bytes = (Unix.stat s.oplog).Unix.st_size in
  (* a table is written by one connection only, so this is the server's
     per-table apply order *)
  let ref_run = reference written in
  let verify_failed =
    List.fold_left2
      (fun n (q : Gen.stmt) got ->
        if reply_bytes (wire_reply got) = reply_bytes (ref_run q.sql) then n else n + 1)
      0 checks got
  in
  let pick f = List.map f segs in
  {
    setup_s;
    lo = pick (fun (lo, _, _) -> lo);
    hi = pick (fun (_, hi, _) -> hi);
    closed = pick (fun (_, _, closed) -> closed);
    rss_mb;
    amplification =
      float_of_int log_bytes
      /. float_of_int (List.fold_left (fun n (st : Gen.stmt) -> n + st.user_bytes) 0 written);
    verify_failed;
    verified = List.length checks;
    durable;
    calib;
    check_s = now () -. t_check;
  }

(* --- the traced pass ------------------------------------------------------ *)

(* What a workload reports: its metrics (name, value, unit) and its
   request counts. *)
type report = { metrics : (string * float * string) list; attempted : int; failed : int }

(* One fixed-EAX open of an integer cell — the unit the planner prices
   in — through the same cell scheme the tables use.  The fastest of 51
   batches: a unit cost, not a latency, so scheduler and GC noise is
   left out. *)
let cell_decrypt_us () =
  let aead = Secdb_aead.Eax.make (Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'e')) in
  let nonce = Secdb_aead.Nonce.counter ~size:aead.Secdb_aead.Aead.nonce_size () in
  let cell = Secdb_schemes.Fixed_cell.make ~aead ~nonce () in
  let addr = Secdb_db.Address.v ~table:1 ~row:4242 ~col:2 in
  let stored = cell.encrypt addr (Secdb_db.Value.encode (Secdb_db.Value.Int 42L)) in
  let batch = 100 in
  List.fold_left Float.min infinity
    (List.init 51 (fun _ ->
         let t0 = Replay.ns () in
         for _ = 1 to batch do
           ignore (cell.decrypt addr stored)
         done;
         float_of_int (Replay.ns () - t0) /. float_of_int batch /. 1e3))

(* The stages on a request's path, in order; [sql.plan] is not one of them
   (see {!Replay.job}). *)
let path_stages =
  [
    "net.req_encode"; "net.req_decode"; "sql.parse"; "sql.snapshot_read"; "sql.exec";
    "core.oplog_append"; "sql.snapshot_apply"; "net.resp";
  ]

let traced_pass wl ds =
  let calib0 = calib_ms () in
  let setup = Gen.setup wl ~seed:!seed ds in
  let dir = fresh_dir (Gen.name wl ^ "-trace") in
  let streams = Array.init 2 (fun conn -> Gen.stream wl ds ~seed:!seed ~tag:"trace" ~conn) in
  let sqls = List.init trace_n (fun i -> (Gen.next streams.(i land 1)).Gen.sql) in
  (* 1 connection, 1 request outstanding, against the live server *)
  let serial, wire, ping =
    set_up dir setup @@ fun s _ ->
    let c = Loadgen.connect ~auth_key s.addr in
    let timed req =
      let t0 = Replay.ns () in
      let r = Client.call c req in
      (Replay.ns () - t0, r)
    in
    let serial = List.map (fun sql -> timed (Wire.Sql sql)) sqls in
    let ping = List.init trace_n (fun _ -> fst (timed (Wire.Ping "ping"))) in
    Client.close c;
    stop s;
    (List.map fst serial, List.map (fun (_, r) -> reply_bytes (wire_reply r)) serial, ping)
  in
  (* the same requests replayed in process; obs on from the start with
     fresh counters, as in a booting [serve], since the planner's live cost
     inputs read them *)
  Secdb_obs.Metrics.reset ();
  Obs.enable ();
  let node = Replay.node ~shards in
  let r = Replay.recorder () in
  List.iteri
    (fun i (st : Gen.stmt) -> ignore (Replay.request r node ~id:(i + 1) st.sql))
    (Gen.setup_stmts setup);
  Replay.open_log node ~path:(dir // "replay.log") ~seed:7L;
  let cell_us = cell_decrypt_us () in
  (* the first pass starts from the server's state, so its replies must
     equal the wire's; it also warms the replay up for the timed passes *)
  let check = Replay.pass r node sqls in
  let off1 = Replay.pass r node sqls in
  node.hits <- 0;
  node.attempts <- 0;
  r.on <- true;
  let on = Replay.pass r node sqls in
  r.on <- false;
  let off2 = Replay.pass r node sqls in
  Obs.disable ();
  Replay.close node;
  let mismatches =
    List.fold_left2 (fun n w o -> if w = reply_bytes o then n else n + 1) 0 wire check.replies
  in
  let fn = float_of_int trace_n in
  let stage = Replay.stages r.spans ~ops:trace_n in
  let serial_ns = Stats.median_int serial and ping_ns = Stats.median_int ping in
  let st = Stats.stitch ~serial_ns (ping_ns :: List.map stage path_stages) in
  let count name = float_of_int (List.assoc name on.counts) in
  let per_op name = count name /. fn in
  let us = Stats.us_of_ns in
  let exec_us = us (stage "sql.exec") in
  let metrics =
    [
      ("net.req_encode_us", us (stage "net.req_encode"), "us/op");
      ("net.req_decode_us", us (stage "net.req_decode"), "us/op");
      ("net.resp_us", us (stage "net.resp"), "us/op");
      ("net.bytes_per_op", float_of_int on.bytes /. fn, "bytes");
      ("net.ping_rtt_us", us ping_ns, "us");
      ("sql.parse_us", us (stage "sql.parse"), "us/op");
      ("sql.snapshot_read_us", us (stage "sql.snapshot_read"), "us/op");
      ( "sql.snapshot_hit_frac",
        float_of_int node.hits /. float_of_int (max 1 node.attempts),
        "fraction" );
      ("sql.plan_us", us (stage "sql.plan"), "us/op");
      ("sql.exec_us", exec_us, "us/op");
      ("sql.snapshot_apply_us", us (stage "sql.snapshot_apply"), "us/op");
      ("aead.decrypts_per_op", per_op "aead.decrypts", "count");
      ("aead.encrypts_per_op", per_op "aead.encrypts", "count");
      ("query.cells_decrypted_per_op", per_op "table.cells_decrypted", "count");
      ("query.walker_false_pos_per_op", per_op "walker.false_positives", "count");
      ( "query.decrypts_per_row",
        (if on.rows = 0 then 0. else count "aead.decrypts" /. float_of_int on.rows),
        "ratio" );
      ("aead.cell_decrypt_us", cell_us, "us");
      ( "aead.est_share",
        (if exec_us > 0. then per_op "aead.decrypts" *. cell_us /. exec_us else 0.),
        "fraction" );
      ("core.oplog_append_us", us (stage "core.oplog_append"), "us/op");
      ("core.fsyncs_per_op", per_op "oplog.syncs", "count");
      ("e2e.serial_us", us serial_ns, "us");
      ("stage_sum_us", us st.stage_sum_ns, "us");
      ("residual_us", us st.residual_ns, "us");
      ("residual_frac", float_of_int st.residual_ns /. float_of_int serial_ns, "fraction");
      ( "trace.overhead_frac",
        (2. *. float_of_int on.wall_ns /. float_of_int (off1.wall_ns + off2.wall_ns)) -. 1.,
        "fraction" );
      ("host.calib_ms", Stats.median [ calib0; calib_ms () ], "ms");
    ]
  in
  say "-- %s traced pass: %d requests serial, replayed in process (%d mismatch(es))"
    (Gen.name wl) trace_n mismatches;
  List.iter (fun (n, v, u) -> say "  %-30s %12.4f %s" n v u) metrics;
  ({ metrics; attempted = 3 * trace_n; failed = mismatches }, r.spans)

(* --- reporting ------------------------------------------------------------ *)

let tail_line label lats =
  let a = Stats.sorted lats in
  let n = Array.length a in
  match Stats.tail_percentile n with
  | Some p -> Printf.sprintf "%s p%g %.3f ms (n=%d)" label p (Stats.percentile a p) n
  | None -> Printf.sprintf "%s (n=%d, too few samples for a tail)" label n

let e2e_report wl (rs : round list) =
  let med f = Stats.median_of_rounds f rs in
  let total f = List.fold_left (fun n r -> n + f r) 0 rs in
  let over_phases f r = List.fold_left (fun n p -> n + f p) 0 (r.lo @ r.hi @ r.closed) in
  (* an acked write missing from the recovered log counts as failed *)
  let lost r = match r.durable with Some (got, want) -> abs (want - got) | None -> 0 in
  let attempted = total (fun r -> r.verified + over_phases (fun p -> p.Loadgen.attempted) r) in
  let failed =
    total (fun r -> r.verify_failed + lost r + over_phases (fun p -> p.Loadgen.failed) r)
  in
  let metrics =
    [
      ("setup_s", med (fun r -> r.setup_s), "s");
      ("p50_ms.lo", med (fun r -> best_p50 r.lo), "ms");
      ("p50_ms.hi", med (fun r -> best_p50 r.hi), "ms");
      ("throughput_ops", med (fun r -> best_throughput r.closed), "ops/s");
      ("rss_mb", med (fun r -> r.rss_mb), "MB");
      ("log_bytes_per_user_byte", med (fun r -> r.amplification), "ratio");
    ]
  in
  let lo_rate, hi_rate = Gen.rates wl in
  say "-- %s: open loop %g / %g req/s, closed loop 2 conns x window %d, %d round(s)" (Gen.name wl)
    lo_rate hi_rate Loadgen.window (List.length rs);
  List.iter (fun (n, v, u) -> say "  %-26s %12.4f %s" n v u) metrics;
  (* every segment pooled: the latency a client saw, host noise included *)
  let open_phase sel label =
    let pool f = List.concat_map (fun r -> List.concat_map f (sel r)) rs in
    let lats = pool (fun p -> p.Loadgen.lat_ms) in
    say "  latency %s: p50 %.4f ms, %s   (p99 limit %g ms)" label (p50 lats)
      (tail_line "tail" lats) (Gen.p99_limit_ms wl);
    say "  %s" (tail_line ("gen.late " ^ label) (pool (fun p -> p.Loadgen.late_ms)))
  in
  open_phase (fun r -> r.lo) "lo";
  open_phase (fun r -> r.hi) "hi";
  say "  failed_frac %.6f (%d of %d, verification %d mismatch(es))"
    (float_of_int failed /. float_of_int attempted)
    failed attempted
    (total (fun r -> r.verify_failed));
  let calib_med = med (fun r -> r.calib) in
  List.iteri
    (fun i r ->
      say "  round %d: setup %.3f s, best p50 lo %.4f / hi %.4f ms, best %.0f ops/s, checks %.2f s"
        i r.setup_s (best_p50 r.lo) (best_p50 r.hi) (best_throughput r.closed) r.check_s;
      say "    host.calib %.2f ms%s%s" r.calib
        (if Float.abs (r.calib -. calib_med) > 0.15 *. calib_med then " [>15% off the median]"
         else "")
        (match r.durable with
        | Some (got, want) -> Printf.sprintf ", kill -9: %d/%d oplog records recovered" got want
        | None -> ""))
    rs;
  { metrics; attempted; failed }

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ = failwith "interrupted" in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  if not (Sys.file_exists !cli) then begin
    Printf.eprintf "e2e: server binary %s not found (run dune build first)\n" !cli;
    exit 2
  end;
  say "secdb e2e bench: commit %s, nproc %d, shards %d, OCaml %s, seed %d%s" (git_commit ())
    (Domain.recommended_domain_count ())
    shards Sys.ocaml_version !seed
    (if !smoke then ", smoke" else "");
  say "deployment: secdb_cli serve -a unix:DIR/s.sock --oplog DIR/op.log --seed 7";
  say "  primary, fixed-eax, oplog flush Always, obs on; routing at %d shard(s): %s" shards
    (String.concat ", "
       (List.map
          (fun t -> Printf.sprintf "%s->%d" t (Shard.key_index ~shards t))
          [ "orders"; "customers"; "accounts"; "events" ]));
  say "rows %d, %d round(s) of %d segment(s): lo %.3f s, hi %.3f s, closed %.3f s" rows rounds
    segments lo_s hi_s closed_s;
  let ds = Gen.dataset ~seed:!seed ~rows in
  (* rounds outermost, so host drift hits every workload alike *)
  let e2e =
    if !trace = 1 then []
    else
      let per_round =
        List.init rounds (fun k ->
            List.map (fun wl -> (wl, round wl ds ~k ~last:(k = rounds - 1))) workloads)
      in
      List.map (fun wl -> (wl, e2e_report wl (List.map (List.assoc wl) per_round))) workloads
  in
  let traced = if !trace = 0 then [] else List.map (fun wl -> (wl, traced_pass wl ds)) workloads in
  if !trace_out <> "" then
    Out_channel.with_open_text !trace_out (fun oc ->
        List.iter
          (fun (wl, (_, spans)) ->
            List.iter
              (fun s -> Printf.fprintf oc "%s\n" (Replay.span_json ~workload:(Gen.name wl) s))
              (List.rev spans))
          traced);
  let reports = e2e @ List.map (fun (wl, (rep, _)) -> (wl, rep)) traced in
  let name wl n = if List.length workloads = 1 then n else Gen.name wl ^ ":" ^ n in
  let metrics =
    List.concat_map
      (fun (wl, rep) ->
        List.map
          (fun (n, v, u) -> Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} (name wl n) (num v) u)
          rep.metrics)
      reports
  in
  let sum f = List.fold_left (fun n (_, rep) -> n + f rep) 0 reports in
  let failed = sum (fun rep -> rep.failed) in
  say {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (failed = 0)
    (sum (fun rep -> rep.attempted))
    failed (String.concat "," metrics);
  if failed > 0 then exit 1
