(* Cost-model planner: deterministic tie-breaking, the cardinality
   gauges, and an oracle that compares the adaptive executor, every
   forced candidate plan, the snapshot fast path and a plaintext
   decrypt-all reference on random tables and random JOIN / ORDER BY /
   BETWEEN workloads. *)

open Secdb
module Value = Secdb_db.Value
module A = Secdb_sql.Ast
module P = Secdb_sql.Parser
module E = Secdb_sql.Engine
module Pl = Secdb_sql.Plan
module Snap = Secdb_sql.Snapshot
module Metrics = Secdb_obs.Metrics

let exec db sql =
  match E.exec db sql with Ok r -> r | Error e -> Alcotest.fail (sql ^ ": " ^ e)

(* --- deterministic tie-breaking ------------------------------------------- *)

let test_tie_break () =
  (* equal-cost candidates fall to the pinned ranks, never to float noise
     or hash order *)
  let scan access cost = Pl.Scan { table = "t"; access; cost } in
  let ip = Pl.Index_probe { col = "c"; lo = None; hi = None; estimate = 0.5 } in
  let bs = Pl.Bucket_scan { col = "c"; lo = None; hi = None; buckets = 4; estimate = 0.5 } in
  Alcotest.(check bool) "exact index beats bucket at equal cost" true
    (Pl.compare (scan ip 10.) (scan bs 10.) < 0);
  Alcotest.(check bool) "bucket beats full scan at equal cost" true
    (Pl.compare (scan bs 10.) (scan Pl.Seq_scan 10.) < 0);
  Alcotest.(check bool) "cheaper wins regardless of rank" true
    (Pl.compare (scan Pl.Seq_scan 9.) (scan ip 10.) < 0);
  (* a column carrying BOTH an exact and a range index: the choice is a
     function of the maintained stats alone, identical across session
     seeds and repeated calls, and the exact index is the pinned winner *)
  let build seed =
    let db =
      Encdb.create ~seed:(Int64.of_int seed) ~master:"tie" ~profile:(Encdb.Fixed Encdb.Eax) ()
    in
    ignore (exec db "CREATE TABLE t (id INT CLEAR, v INT)");
    for i = 0 to 49 do
      ignore (exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
    done;
    ignore (exec db "CREATE INDEX ON t (v)");
    ignore (exec db "CREATE RANGE INDEX ON t (v) BUCKETS 4");
    db
  in
  let q = "SELECT * FROM t WHERE v BETWEEN 10 AND 20" in
  let plan db =
    match P.parse q with Ok (A.Select s) -> E.plan_of_select db s | _ -> Alcotest.fail "parse"
  in
  let db1 = build 1 and db2 = build 999 in
  Alcotest.(check string) "same plan across seeds" (Pl.name (plan db1)) (Pl.name (plan db2));
  Alcotest.(check string) "stable across calls" (Pl.name (plan db1)) (Pl.name (plan db1));
  (match plan db1 with
  | Pl.Scan { access = Pl.Index_probe _; _ } -> ()
  | p -> Alcotest.failf "expected the exact index to win, got %s" (Pl.name p));
  (* both paths stay live candidates *)
  let names =
    match P.parse q with
    | Ok (A.Select s) -> List.map Pl.name (E.candidate_plans db1 s)
    | _ -> Alcotest.fail "parse"
  in
  Alcotest.(check bool) "bucket still a candidate" true (List.mem "bucket" names);
  Alcotest.(check bool) "seq still a candidate" true (List.mem "seq" names)

(* --- cost inputs ------------------------------------------------------------ *)

let test_cost_ignores_latency () =
  (* plan latency is observability, not a cost input: however skewed the
     [sql.plan_latency] histograms, an in-memory exact probe is priced as
     it is with obs off *)
  let db = Encdb.create ~seed:5L ~master:"latency" ~profile:(Encdb.Fixed Encdb.Eax) () in
  ignore (exec db "CREATE TABLE t (id INT CLEAR, v INT)");
  for i = 0 to 49 do
    ignore (exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 10)))
  done;
  ignore (exec db "CREATE INDEX ON t (v)");
  ignore (exec db "CREATE RANGE INDEX ON t (v) BUCKETS 4");
  let explain () =
    match exec db "EXPLAIN SELECT * FROM t WHERE v = 3" with
    | E.Plan p -> p
    | _ -> Alcotest.fail "EXPLAIN returned no plan"
  in
  let static = explain () in
  Alcotest.(check bool) ("an exact probe: " ^ static) true
    (String.starts_with ~prefix:"INDEX SCAN" static);
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let plan_latency kind = Metrics.histogram ~labels:[ ("plan", kind) ] "sql.plan_latency" in
  for _ = 1 to 32 do
    Metrics.observe (plan_latency "index") 10.0;
    Metrics.observe (plan_latency "bucket") 1e-6
  done;
  Alcotest.(check string) "EXPLAIN after skewed latency samples" static (explain ())

(* --- cardinality gauges ---------------------------------------------------- *)

let test_row_gauges () =
  Secdb_obs.Obs.with_enabled @@ fun () ->
  let db = Encdb.create ~master:"gauges" ~profile:(Encdb.Fixed Encdb.Eax) () in
  ignore (exec db "CREATE TABLE g (id INT CLEAR, v INT)");
  for i = 0 to 9 do
    ignore (exec db (Printf.sprintf "INSERT INTO g VALUES (%d, %d)" i i))
  done;
  ignore (exec db "DELETE FROM g WHERE v BETWEEN 0 AND 2");
  Alcotest.(check int) "live_rows tracks inserts and deletes" 7
    (Encdb.live_rows db ~table:"g");
  Alcotest.(check int) "db.rows gauge mirrors live_rows" 7
    (Metrics.gauge_value (Metrics.gauge ~labels:[ ("table", "g") ] "db.rows"))

(* --- oracle ----------------------------------------------------------------

   t1 (id INT CLEAR, k INT, a INT) and t2 (id INT CLEAR, k INT, b INT)
   with random rows (k nullable), random index layouts, random queries.
   The plaintext reference replicates the engine's canonical semantics
   over plain value arrays: candidates ascending by row id — join outputs
   by (left row, right row) — then residual filter, stable ORDER BY sort,
   LIMIT.  Every result is compared as an ordered list; without ORDER BY
   the canonical order itself is the contract. *)

type query =
  | Single of A.expr option * (string * A.order) option * int option
  | Join of A.expr option * (string * A.order) option * int option

type scenario = {
  rows1 : (int option * int) list;  (* (k, a) — None = NULL key *)
  rows2 : (int option * int) list;  (* (k, b) *)
  idx1 : bool;  (* exact index on t1.k *)
  ridx1 : int option;  (* range index on t1.k with this many buckets *)
  idx2 : bool;  (* exact index on t2.k — enables the index loop join *)
  q : query;
}

let gen_scenario =
  QCheck2.Gen.(
    let row = pair (option (int_range 0 9)) (int_range 0 99) in
    let* rows1 = list_size (int_range 0 24) row in
    let* rows2 = list_size (int_range 0 24) row in
    let* idx1 = bool in
    let* ridx1 = option (int_range 1 6) in
    let* idx2 = bool in
    let between col =
      let* lo = int_range (-2) 11 in
      let* hi = int_range (-2) 11 in
      return (A.Between (A.Col col, A.Lit (Value.Int (Int64.of_int lo)),
                         A.Lit (Value.Int (Int64.of_int hi))))
    in
    let eq col =
      let* x = int_range 0 9 in
      return (A.Cmp (A.Eq, A.Col col, A.Lit (Value.Int (Int64.of_int x))))
    in
    let* q =
      oneof
        [
          (let* where = option (oneof [ between "k"; eq "k" ]) in
           let* order_by =
             option (pair (oneofl [ "a"; "k" ]) (oneofl [ A.Asc; A.Desc ]))
           in
           let* limit = option (int_bound 10) in
           return (Single (where, order_by, limit)));
          (let* where = option (between "a") in
           let* order_by = option (pair (oneofl [ "b"; "a" ]) (oneofl [ A.Asc; A.Desc ])) in
           let* limit = option (int_bound 10) in
           return (Join (where, order_by, limit)));
        ]
    in
    return { rows1; rows2; idx1; ridx1; idx2; q })

let print_scenario sc =
  let rows l =
    String.concat ";"
      (List.map
         (fun (k, x) ->
           Printf.sprintf "(%s,%d)" (match k with Some k -> string_of_int k | None -> "_") x)
         l)
  in
  let sel =
    match sc.q with
    | Single (where, order_by, limit) | Join (where, order_by, limit) ->
        A.to_sql
          (A.Select
             {
               A.items = None;
               table = "t1";
               join =
                 (match sc.q with
                 | Join _ -> Some { A.jtable = "t2"; on_left = "t1.k"; on_right = "t2.k" }
                 | Single _ -> None);
               where;
               group_by = None;
               order_by;
               limit;
             })
  in
  Printf.sprintf "t1=[%s] t2=[%s] idx1=%b ridx1=%s idx2=%b q=%s" (rows sc.rows1)
    (rows sc.rows2) sc.idx1
    (match sc.ridx1 with Some b -> string_of_int b | None -> "-")
    sc.idx2 sel

let build_db sc =
  let db = Encdb.create ~master:"planner-oracle" ~profile:(Encdb.Fixed Encdb.Eax) () in
  let run sql = match E.exec db sql with Ok _ -> () | Error e -> failwith (sql ^ ": " ^ e) in
  run "CREATE TABLE t1 (id INT CLEAR, k INT, a INT)";
  run "CREATE TABLE t2 (id INT CLEAR, k INT, b INT)";
  let ins t i (k, x) =
    run
      (Printf.sprintf "INSERT INTO %s VALUES (%d, %s, %d)" t i
         (match k with Some k -> string_of_int k | None -> "NULL")
         x)
  in
  List.iteri (ins "t1") sc.rows1;
  List.iteri (ins "t2") sc.rows2;
  if sc.idx1 then run "CREATE INDEX ON t1 (k)";
  (match sc.ridx1 with
  | Some b -> run (Printf.sprintf "CREATE RANGE INDEX ON t1 (k) BUCKETS %d" b)
  | None -> ());
  if sc.idx2 then run "CREATE INDEX ON t2 (k)";
  db

let select_of sc =
  match sc.q with
  | Single (where, order_by, limit) ->
      { A.items = None; table = "t1"; join = None; where; group_by = None; order_by; limit }
  | Join (where, order_by, limit) ->
      {
        A.items = None;
        table = "t1";
        join = Some { A.jtable = "t2"; on_left = "t1.k"; on_right = "t2.k" };
        where;
        group_by = None;
        order_by;
        limit;
      }

(* plaintext reference over plain arrays *)
let reference sc =
  let v = function Some k -> Value.Int (Int64.of_int k) | None -> Value.Null in
  let arr1 i (k, a) = [| Value.Int (Int64.of_int i); v k; Value.Int (Int64.of_int a) |] in
  let t1 = List.mapi arr1 sc.rows1 in
  let t2 = List.mapi arr1 sc.rows2 in
  (* column positions in the (possibly combined) result row *)
  let col joined = function
    | "k" -> 1
    | "a" -> 2
    | "b" -> if joined then 5 else failwith "b unjoined"
    | c -> failwith c
  in
  let cmp_ok op a b =
    a <> Value.Null && b <> Value.Null
    &&
    let d = Value.compare a b in
    match op with A.Ge -> d >= 0 | A.Le -> d <= 0 | A.Eq -> d = 0 | _ -> failwith "op"
  in
  let keep joined row = function
    | None -> true
    | Some (A.Between (A.Col c, A.Lit lo, A.Lit hi)) ->
        let x = row.(col joined c) in
        cmp_ok A.Ge x lo && cmp_ok A.Le x hi
    | Some (A.Cmp (A.Eq, A.Col c, A.Lit x)) -> cmp_ok A.Eq row.(col joined c) x
    | Some _ -> failwith "where shape"
  in
  let finish joined where order_by limit rows =
    let rows = List.filter (fun (_, r) -> keep joined r where) rows in
    let rows =
      match order_by with
      | None -> rows
      | Some (c, dir) ->
          let i = col joined c in
          List.stable_sort
            (fun (_, x) (_, y) ->
              let d = Value.compare x.(i) y.(i) in
              match dir with A.Asc -> d | A.Desc -> -d)
            rows
    in
    let rows = match limit with None -> rows | Some n -> List.filteri (fun i _ -> i < n) rows in
    List.map (fun (_, r) -> Array.to_list r) rows
  in
  match sc.q with
  | Single (where, order_by, limit) ->
      finish false where order_by limit (List.mapi (fun i r -> (i, r)) t1)
  | Join (where, order_by, limit) ->
      let pairs =
        List.concat
          (List.mapi
             (fun i r1 ->
               if r1.(1) = Value.Null then []
               else
                 List.concat
                   (List.mapi
                      (fun j r2 ->
                        if r2.(1) <> Value.Null && Value.compare r1.(1) r2.(1) = 0 then
                          [ ((i, j), Array.append r1 r2) ]
                        else [])
                      t2))
             t1)
      in
      finish true where order_by limit pairs

let prop_oracle =
  QCheck2.Test.make ~name:"adaptive = every forced plan = snapshot = plaintext oracle"
    ~count:60 ~print:print_scenario gen_scenario (fun sc ->
      let db = build_db sc in
      let s = select_of sc in
      let adaptive =
        match E.exec_stmt db (A.Select s) with Ok r -> r | Error e -> failwith e
      in
      (* ordered-list agreement with the plaintext reference *)
      (match adaptive with
      | E.Rows { rows; _ } -> if rows <> reference sc then failwith "reference mismatch"
      | _ -> failwith "rows expected");
      (* every candidate plan returns the same bytes *)
      let plans = E.candidate_plans db s in
      List.iter
        (fun p ->
          match E.exec_plan db s p with
          | Ok r -> if r <> adaptive then failwith ("plan diverges: " ^ Pl.name p)
          | Error e -> failwith (Pl.name p ^ ": " ^ e))
        plans;
      (* joins must offer both nesting orders, and the index loop when the
         inner key is exact-indexed *)
      (match sc.q with
      | Join _ ->
          let names = List.map Pl.name plans in
          if not (List.exists (fun n -> n = "loop-join") names) then failwith "no loop-join";
          if not (List.exists (fun n -> n = "loop-join-rev") names) then
            failwith "no reversed loop-join";
          if sc.idx2 && not (List.exists (fun n -> n = "index-loop-join") names) then
            failwith "no index-loop-join despite inner index"
      | Single _ -> ());
      (* the lock-free snapshot path answers every SELECT, JOINs included,
         and matches too *)
      (match E.exec_snapshot (Snap.of_db db) (A.Select s) with
      | Some (Ok fast) -> if fast <> adaptive then failwith "snapshot diverges"
      | Some (Error e) -> failwith ("snapshot: " ^ e)
      | None -> failwith "snapshot declined a SELECT");
      (* EXPLAIN names the plan the executor would run *)
      (match E.exec_stmt db (A.Explain s) with
      | Ok (E.Plan p) ->
          if p <> Fmt.str "%a" Pl.pp (E.plan_of_select db s) then failwith "EXPLAIN mismatch"
      | _ -> failwith "explain");
      true)

let suites =
  [
    ( "sql:planner-oracle",
      [
        Alcotest.test_case "deterministic tie-breaking" `Quick test_tie_break;
        Alcotest.test_case "db.rows gauge tracks live rows" `Quick test_row_gauges;
        Alcotest.test_case "observed plan latency does not move the cost" `Quick
          test_cost_ignores_latency;
        Test_seed.qc prop_oracle;
      ] );
  ]
