open Secdb
module Value = Secdb_db.Value
module L = Secdb_sql.Lexer
module P = Secdb_sql.Parser
module A = Secdb_sql.Ast
module E = Secdb_sql.Engine
module Pl = Secdb_sql.Plan

(* --- lexer ---------------------------------------------------------------- *)

let test_lexer () =
  (match L.tokens "SELECT a, b FROM t WHERE x >= 'it''s' -- comment\n;" with
  | Ok
      [ L.Kw "SELECT"; L.Ident "a"; L.Sym ","; L.Ident "b"; L.Kw "FROM"; L.Ident "t";
        L.Kw "WHERE"; L.Ident "x"; L.Sym ">="; L.Str "it's"; L.Sym ";"; L.Eof ] ->
      ()
  | Ok toks -> Alcotest.fail (Fmt.str "unexpected tokens: %a" (Fmt.list L.pp_token) toks)
  | Error e -> Alcotest.fail e);
  (match L.tokens "x'68656c6c6f' -42 <>" with
  | Ok [ L.Blob "hello"; L.Int -42L; L.Sym "!="; L.Eof ] -> ()
  | Ok toks -> Alcotest.fail (Fmt.str "unexpected: %a" (Fmt.list L.pp_token) toks)
  | Error e -> Alcotest.fail e);
  (match L.tokens "'unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string accepted");
  match L.tokens "se#lect" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad character accepted"

(* --- parser --------------------------------------------------------------- *)

let parse_ok s =
  match P.parse s with Ok stmt -> stmt | Error e -> Alcotest.fail (s ^ ": " ^ e)

let test_parser_select () =
  (match parse_ok "SELECT * FROM patients" with
  | A.Select { items = None; table = "patients"; where = None; _ } -> ()
  | _ -> Alcotest.fail "plain select");
  (match parse_ok "select name, age from patients where age >= 40 and age <= 60 order by age desc limit 3;" with
  | A.Select
      { items = Some [ A.Field "name"; A.Field "age" ]; where = Some (A.And _);
        order_by = Some ("age", A.Desc); limit = Some 3; _ } ->
      ()
  | s -> Alcotest.fail (Fmt.str "got %a" A.pp_stmt s));
  match parse_ok "SELECT * FROM t WHERE a BETWEEN 1 AND 5 OR NOT b = 'x'" with
  | A.Select { where = Some (A.Or (A.Between _, A.Not (A.Cmp (A.Eq, _, _)))); _ } -> ()
  | s -> Alcotest.fail (Fmt.str "got %a" A.pp_stmt s)

let test_parser_other_statements () =
  (match parse_ok "INSERT INTO t VALUES (1, 'x', x'00ff', TRUE, NULL)" with
  | A.Insert { table = "t"; values = [ Value.Int 1L; Value.Text "x"; Value.Bytes "\x00\xff"; Value.Bool true; Value.Null ] } -> ()
  | s -> Alcotest.fail (Fmt.str "got %a" A.pp_stmt s));
  (match parse_ok "UPDATE t SET name = 'bob' WHERE id = 3" with
  | A.Update { table = "t"; col = "name"; value = Value.Text "bob"; where = Some _ } -> ()
  | _ -> Alcotest.fail "update");
  (match parse_ok "DELETE FROM t" with
  | A.Delete { table = "t"; where = None } -> ()
  | _ -> Alcotest.fail "delete");
  (match parse_ok "CREATE TABLE t (id INT CLEAR, name TEXT, tags BYTES ENCRYPTED, ok BOOL)" with
  | A.Create_table { name = "t"; cols = [ c1; c2; c3; c4 ] } ->
      Alcotest.(check bool) "clear id" true (c1.A.col_protection = Secdb_db.Schema.Clear);
      Alcotest.(check bool) "encrypted default" true (c2.A.col_protection = Secdb_db.Schema.Encrypted);
      Alcotest.(check bool) "kinds" true
        (c1.A.col_type = Value.Kint && c2.A.col_type = Value.Ktext
        && c3.A.col_type = Value.Kbytes && c4.A.col_type = Value.Kbool)
  | _ -> Alcotest.fail "create table");
  match parse_ok "CREATE INDEX ON t (name)" with
  | A.Create_index { table = "t"; col = "name" } -> ()
  | _ -> Alcotest.fail "create index"

let test_parser_errors () =
  let reject s =
    match P.parse s with
    | Error _ -> ()
    | Ok stmt -> Alcotest.fail (Fmt.str "accepted %s as %a" s A.pp_stmt stmt)
  in
  reject "SELECT";
  reject "SELECT * FROM";
  reject "SELECT * FROM t WHERE";
  reject "SELECT * FROM t extra";
  reject "INSERT INTO t VALUES ()";
  reject "SELECT * FROM t WHERE a";
  reject "CREATE TABLE t ()";
  reject "SELECT * FROM t LIMIT -1";
  reject "UPDATE t SET a = b"

(* --- engine ---------------------------------------------------------------- *)

let setup () =
  let db = Encdb.create ~master:"sql tests" ~profile:(Encdb.Fixed Encdb.Eax) () in
  let run s =
    match E.exec db s with
    | Ok r -> r
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ignore (run "CREATE TABLE staff (id INT CLEAR, name TEXT, dept TEXT, salary INT)");
  List.iter
    (fun (i, n, d, s) ->
      ignore (run (Printf.sprintf "INSERT INTO staff VALUES (%d, '%s', '%s', %d)" i n d s)))
    [
      (0, "ada", "research", 9100); (1, "grace", "systems", 8700);
      (2, "edsger", "research", 8200); (3, "donald", "systems", 9300);
      (4, "barbara", "research", 8900); (5, "alan", "intelligence", 8800);
    ];
  ignore (run "CREATE INDEX ON staff (salary)");
  (db, run)

let names = function
  | E.Rows { rows; columns } ->
      let i =
        match List.mapi (fun i c -> (c, i)) columns |> List.assoc_opt "name" with
        | Some i -> i
        | None -> 0
      in
      List.map (fun row -> match List.nth row i with Value.Text s -> s | v -> Value.to_string v) rows
  | _ -> Alcotest.fail "expected rows"

let test_engine_select () =
  let _db, run = setup () in
  Alcotest.(check (list string)) "range over index" [ "barbara"; "ada"; "donald" ]
    (names (run "SELECT name FROM staff WHERE salary > 8800 OR name = 'barbara' ORDER BY salary"));
  Alcotest.(check (list string)) "projection and limit" [ "donald"; "ada" ]
    (names (run "SELECT name, salary FROM staff ORDER BY salary DESC LIMIT 2"));
  Alcotest.(check (list string)) "predicate on unindexed column" [ "ada"; "edsger"; "barbara" ]
    (names (run "SELECT name FROM staff WHERE dept = 'research'"));
  Alcotest.(check (list string)) "between" [ "grace"; "alan"; "barbara" ]
    (names (run "SELECT name FROM staff WHERE salary BETWEEN 8300 AND 9000 ORDER BY salary"));
  Alcotest.(check (list string)) "col-col comparison" []
    (names (run "SELECT name FROM staff WHERE salary < id"))

let test_engine_plans () =
  let db, run = setup () in
  (match run "EXPLAIN SELECT * FROM staff WHERE salary = 9100" with
  | E.Plan p -> Alcotest.(check bool) "uses index" true (String.length p > 0 && p.[0] = 'I')
  | _ -> Alcotest.fail "expected plan");
  (match run "EXPLAIN SELECT * FROM staff WHERE dept = 'research'" with
  | E.Plan p -> Alcotest.(check bool) "full scan" true (p.[0] = 'F')
  | _ -> Alcotest.fail "expected plan");
  (* strict bounds widen but stay on the index *)
  (match E.plan_of_select db
           { A.items = None; group_by = None; table = "staff"; join = None;
             where = Some (A.And (A.Cmp (A.Gt, A.Col "salary", A.Lit (Value.Int 8800L)),
                                  A.Cmp (A.Lt, A.Col "salary", A.Lit (Value.Int 9200L))));
             order_by = None; limit = None }
   with
  | Pl.Scan
      { access =
          Pl.Index_probe
            { col = "salary"; lo = Some (Value.Int 8800L); hi = Some (Value.Int 9200L); _ };
        _ } -> ()
  | Pl.Scan { access = Pl.Index_probe _; _ } -> Alcotest.fail "wrong bounds"
  | _ -> Alcotest.fail "should use index");
  (* OR disables the sargable path (kept only under top-level AND) *)
  match E.plan_of_select db
          { A.items = None; group_by = None; table = "staff"; join = None;
            where = Some (A.Or (A.Cmp (A.Eq, A.Col "salary", A.Lit (Value.Int 1L)),
                                A.Cmp (A.Eq, A.Col "salary", A.Lit (Value.Int 2L))));
            order_by = None; limit = None }
  with
  | Pl.Scan { access = Pl.Seq_scan; _ } -> ()
  | _ -> Alcotest.fail "OR must not be sargable"

let test_engine_mutations () =
  let _db, run = setup () in
  (match run "UPDATE staff SET salary = 9999 WHERE dept = 'research'" with
  | E.Affected 3 -> ()
  | r -> Alcotest.fail (Fmt.str "got %a" E.pp_result r));
  Alcotest.(check (list string)) "updates visible through index"
    [ "ada"; "edsger"; "barbara" ]
    (names (run "SELECT name FROM staff WHERE salary = 9999"));
  (match run "DELETE FROM staff WHERE name = 'alan'" with
  | E.Affected 1 -> ()
  | _ -> Alcotest.fail "delete count");
  (match run "SELECT name FROM staff WHERE name = 'alan'" with
  | E.Rows { rows = []; _ } -> ()
  | _ -> Alcotest.fail "alan survived");
  match run "INSERT INTO staff VALUES (6, 'hedy', 'systems', 9000)" with
  | E.Affected 1 -> (
      match run "SELECT name FROM staff WHERE salary = 9000" with
      | E.Rows { rows = [ _ ]; _ } -> ()
      | _ -> Alcotest.fail "insert not indexed")
  | _ -> Alcotest.fail "insert"

let test_engine_errors () =
  let db, _run = setup () in
  let reject s =
    match E.exec db s with
    | Error _ -> ()
    | Ok r -> Alcotest.fail (Fmt.str "accepted %s: %a" s E.pp_result r)
  in
  reject "SELECT * FROM ghosts";
  reject "SELECT ghost FROM staff";
  reject "SELECT * FROM staff WHERE ghost = 1";
  reject "INSERT INTO staff VALUES (1)";
  reject "INSERT INTO staff VALUES ('wrong', 'types', 'here', 'x')";
  reject "CREATE TABLE staff (id INT)";
  reject "CREATE INDEX ON staff (ghost)"

let test_engine_detects_tampering () =
  let db, run = setup () in
  (* relocate an index payload below the DBMS *)
  let tree = Encdb.index db ~table:"staff" ~col:"salary" in
  let module B = Secdb_index.Bptree in
  let leaves = ref [] in
  B.iter_nodes
    (fun v -> if v.B.node_kind = B.Leaf && Array.length v.B.payloads > 0 then leaves := v :: !leaves)
    tree;
  (match !leaves with
  | a :: b :: _ -> B.set_payload tree ~row:a.B.row ~slot:0 b.B.payloads.(0)
  | _ -> Alcotest.fail "not enough leaves");
  ignore run;
  (* a whole-table range never beats a full scan under the cost model, so
     force the index-probing candidate: SQL through the index must surface
     the relocation *)
  let s =
    match P.parse "SELECT * FROM staff WHERE salary >= 0" with
    | Ok (A.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  let idx =
    match
      List.find_opt
        (function Pl.Scan { access = Pl.Index_probe _; _ } -> true | _ -> false)
        (E.candidate_plans db s)
    with
    | Some p -> p
    | None -> Alcotest.fail "index candidate missing"
  in
  match E.exec_plan db s idx with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered index answered a SQL query"

let suites =
  [
    ( "sql:lexer-parser",
      [
        Alcotest.test_case "lexer" `Quick test_lexer;
        Alcotest.test_case "select grammar" `Quick test_parser_select;
        Alcotest.test_case "other statements" `Quick test_parser_other_statements;
        Alcotest.test_case "syntax errors" `Quick test_parser_errors;
      ] );
    ( "sql:engine",
      [
        Alcotest.test_case "select/order/limit/projection" `Quick test_engine_select;
        Alcotest.test_case "planner choices" `Quick test_engine_plans;
        Alcotest.test_case "insert/update/delete" `Quick test_engine_mutations;
        Alcotest.test_case "semantic errors" `Quick test_engine_errors;
        Alcotest.test_case "tampering surfaces through SQL" `Quick
          test_engine_detects_tampering;
      ] );
  ]

(* --- aggregates ------------------------------------------------------------ *)

let cells = function
  | E.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

let test_engine_aggregates () =
  let _db, run = setup () in
  (match cells (run "SELECT count(*) FROM staff") with
  | [ [ Value.Int 6L ] ] -> ()
  | r -> Alcotest.fail (Fmt.str "count: %a" Fmt.(list (list (of_to_string Value.to_string))) r));
  (match cells (run "SELECT min(salary), max(salary), sum(salary), avg(salary) FROM staff") with
  | [ [ Value.Int 8200L; Value.Int 9300L; Value.Int 53000L; Value.Int 8833L ] ] -> ()
  | r -> Alcotest.fail (Fmt.str "stats: %a" Fmt.(list (list (of_to_string Value.to_string))) r));
  (match cells (run "SELECT count(*) FROM staff WHERE salary > 8800") with
  | [ [ Value.Int 3L ] ] -> ()
  | _ -> Alcotest.fail "filtered count");
  (* group by *)
  (match cells (run "SELECT dept, count(*), avg(salary) FROM staff GROUP BY dept") with
  | [
      [ Value.Text "intelligence"; Value.Int 1L; Value.Int 8800L ];
      [ Value.Text "research"; Value.Int 3L; Value.Int 8733L ];
      [ Value.Text "systems"; Value.Int 2L; Value.Int 9000L ];
    ] ->
      ()
  | r -> Alcotest.fail (Fmt.str "group: %a" Fmt.(list (list (of_to_string Value.to_string))) r));
  (* header names *)
  match run "SELECT count(*) FROM staff" with
  | E.Rows { columns = [ "count(*)" ]; _ } -> ()
  | E.Rows { columns; _ } -> Alcotest.fail (String.concat "," columns)
  | _ -> Alcotest.fail "rows expected"

let test_engine_aggregate_errors () =
  let db, _run = setup () in
  let reject s =
    match E.exec db s with Error _ -> () | Ok _ -> Alcotest.fail ("accepted " ^ s)
  in
  reject "SELECT sum(*) FROM staff";
  reject "SELECT sum(name) FROM staff";
  reject "SELECT name, count(*) FROM staff";
  (* field not in group by *)
  reject "SELECT salary, count(*) FROM staff GROUP BY dept";
  reject "SELECT name FROM staff GROUP BY dept"

let suites =
  suites
  @ [
      ( "sql:aggregates",
        [
          Alcotest.test_case "count/sum/min/max/avg + group by" `Quick test_engine_aggregates;
          Alcotest.test_case "aggregate errors" `Quick test_engine_aggregate_errors;
        ] );
    ]

(* --- parse . to_sql roundtrip on random statements ------------------------- *)

let gen_ident =
  (* identifiers must not collide with keywords (the grammar has no quoted
     identifier form) *)
  QCheck2.Gen.(
    map2
      (fun c rest ->
        let id = String.make 1 c ^ rest in
        if List.mem (String.uppercase_ascii id) L.keywords then "k" ^ id else id)
      (char_range 'a' 'z')
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)))

let gen_literal =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int (Int64.of_int i)) int;
        map (fun s -> Value.Text s) (string_size (int_range 0 12));
        map (fun s -> Value.Bytes s) (string_size (int_range 0 8));
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
      ])

let gen_operand =
  QCheck2.Gen.(
    oneof [ map (fun c -> A.Col c) gen_ident; map (fun v -> A.Lit v) gen_literal ])

let gen_expr =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then
          oneof
            [
              map3 (fun op a b -> A.Cmp (op, a, b))
                (oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ])
                gen_operand gen_operand;
              map3 (fun e lo hi -> A.Between (e, lo, hi)) gen_operand gen_operand gen_operand;
            ]
        else
          oneof
            [
              map2 (fun a b -> A.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> A.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun e -> A.Not e) (self (n - 1));
              self 1;
            ]))

let gen_sel_item =
  QCheck2.Gen.(
    oneof
      [
        map (fun c -> A.Field c) gen_ident;
        return (A.Aggregate (A.Count, None));
        map2 (fun fn c -> A.Aggregate (fn, Some c))
          (oneofl [ A.Count; A.Sum; A.Min; A.Max; A.Avg ])
          gen_ident;
      ])

let gen_select =
  QCheck2.Gen.(
    let* items =
      oneof [ return None; map Option.some (list_size (int_range 1 4) gen_sel_item) ]
    in
    let* table = gen_ident in
    let* join =
      let qual = oneof [ gen_ident; map2 (fun t c -> t ^ "." ^ c) gen_ident gen_ident ] in
      option
        (let* jtable = gen_ident in
         let* on_left = qual in
         let* on_right = qual in
         return { A.jtable; on_left; on_right })
    in
    let* where = option gen_expr in
    let* group_by = option gen_ident in
    let* order_by = option (pair gen_ident (oneofl [ A.Asc; A.Desc ])) in
    let* limit = option (int_bound 100) in
    return { A.items; table; join; where; group_by; order_by; limit })

let gen_stmt =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> A.Select s) gen_select;
        map (fun s -> A.Explain s) gen_select;
        map2 (fun t vs -> A.Insert { table = t; values = vs }) gen_ident
          (list_size (int_range 1 5) gen_literal);
        (let* table = gen_ident in
         let* col = gen_ident in
         let* value = gen_literal in
         let* where = option gen_expr in
         return (A.Update { table; col; value; where }));
        (let* table = gen_ident in
         let* where = option gen_expr in
         return (A.Delete { table; where }));
        (let* name = gen_ident in
         let* cols =
           list_size (int_range 1 4)
             (let* col_name = gen_ident in
              let* col_type = oneofl [ Value.Kint; Value.Ktext; Value.Kbytes; Value.Kbool ] in
              let* col_protection =
                oneofl [ Secdb_db.Schema.Clear; Secdb_db.Schema.Encrypted ]
              in
              return { A.col_name; col_type; col_protection })
         in
         return (A.Create_table { name; cols }));
        map2 (fun t c -> A.Create_index { table = t; col = c }) gen_ident gen_ident;
        (let* table = gen_ident in
         let* col = gen_ident in
         let* buckets = option (int_range 1 4096) in
         return (A.Create_range_index { table; col; buckets }));
      ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse (to_sql s) = s" ~count:500
    ~print:(fun s -> A.to_sql s)
    gen_stmt
    (fun stmt ->
      match P.parse (A.to_sql stmt) with
      | Ok stmt' -> stmt' = stmt
      | Error _ -> false)

let suites =
  suites
  @ [ ("sql:roundtrip", [ Test_seed.qc prop_roundtrip ]) ]

(* --- scripts ---------------------------------------------------------------- *)

let test_scripts () =
  (match P.parse_many "SELECT * FROM t; ; INSERT INTO t VALUES (1);" with
  | Ok [ A.Select _; A.Insert _ ] -> ()
  | Ok l -> Alcotest.fail (Printf.sprintf "%d statements" (List.length l))
  | Error e -> Alcotest.fail e);
  (match P.parse_many "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty script");
  (match P.parse_many "SELECT * FROM t SELECT" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing semicolon accepted");
  let db = Encdb.create ~master:"scripts" ~profile:(Encdb.Fixed Encdb.Ccfb) () in
  match
    E.exec_script db
      "CREATE TABLE s (id INT CLEAR, x INT);\n\
       INSERT INTO s VALUES (0, 5);\n\
       INSERT INTO s VALUES (1, 7);\n\
       CREATE INDEX ON s (x);\n\
       SELECT sum(x) FROM s;"
  with
  | Ok outcomes -> (
      Alcotest.(check int) "five outcomes" 5 (List.length outcomes);
      match List.rev outcomes with
      | (_, E.Rows { rows = [ [ Value.Int 12L ] ]; _ }) :: _ -> ()
      | _ -> Alcotest.fail "script result")
  | Error e -> Alcotest.fail e

let suites =
  suites @ [ ("sql:scripts", [ Alcotest.test_case "parse_many and exec_script" `Quick test_scripts ]) ]

(* --- selectivity-aware planning ------------------------------------------- *)

let test_planner_selectivity () =
  (* two indexed columns; the planner must pick whichever is more selective
     for the query at hand *)
  let db = Encdb.create ~master:"planner" ~profile:(Encdb.Fixed Encdb.Eax) () in
  (match E.exec db "CREATE TABLE m (id INT CLEAR, a INT, b INT)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* a: uniform over [0,1000); b: constant 5 *)
  for i = 0 to 199 do
    match
      E.exec db (Printf.sprintf "INSERT INTO m VALUES (%d, %d, 5)" i (i * 5))
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  (match E.exec db "CREATE INDEX ON m (a)" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match E.exec db "CREATE INDEX ON m (b)" with Ok _ -> () | Error e -> Alcotest.fail e);
  (* narrow range on a (selective) vs equality on b (matches everything) *)
  let plan sql =
    match P.parse sql with
    | Ok (A.Select s) -> E.plan_of_select db s
    | _ -> Alcotest.fail "parse"
  in
  (match plan "SELECT * FROM m WHERE a BETWEEN 10 AND 20 AND b = 5" with
  | Pl.Scan { access = Pl.Index_probe { col = "a"; estimate; _ }; _ } ->
      Alcotest.(check bool) "a estimated selective" true (estimate < 0.2)
  | Pl.Scan { access = Pl.Index_probe { col; _ }; _ } -> Alcotest.fail ("picked " ^ col)
  | _ -> Alcotest.fail "wrong plan");
  (* flip: wide range on a, point value on b that is rare *)
  (match E.exec db "INSERT INTO m VALUES (999, 1, 77)" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match plan "SELECT * FROM m WHERE a >= 0 AND b = 77" with
  | Pl.Scan { access = Pl.Index_probe { col = "b"; estimate; _ }; _ } ->
      Alcotest.(check bool) "b estimated selective" true (estimate < 0.5)
  | Pl.Scan { access = Pl.Index_probe { col; _ }; _ } -> Alcotest.fail ("picked " ^ col)
  | _ -> Alcotest.fail "wrong plan");
  (* the estimate shows up in EXPLAIN *)
  match E.exec db "EXPLAIN SELECT * FROM m WHERE a BETWEEN 10 AND 20" with
  | Ok (E.Plan p) ->
      Alcotest.(check bool) "estimate printed" true
        (String.length p > 0 &&
         (let rec has i = i + 11 <= String.length p && (String.sub p i 11 = "selectivity" || has (i + 1)) in
          has 0))
  | _ -> Alcotest.fail "explain"

let suites =
  suites
  @ [
      ( "sql:planner",
        [ Alcotest.test_case "selectivity-aware index choice" `Quick test_planner_selectivity ] );
    ]

(* --- bucketized range indexes through SQL ---------------------------------- *)

module Snap = Secdb_sql.Snapshot

let test_parse_create_range_index () =
  (match parse_ok "CREATE RANGE INDEX ON t (v)" with
  | A.Create_range_index { table = "t"; col = "v"; buckets = None } -> ()
  | s -> Alcotest.fail (Fmt.str "got %a" A.pp_stmt s));
  (match parse_ok "create range index on t (v) buckets 32;" with
  | A.Create_range_index { table = "t"; col = "v"; buckets = Some 32 } -> ()
  | s -> Alcotest.fail (Fmt.str "got %a" A.pp_stmt s));
  (match P.parse "CREATE RANGE INDEX ON t (v) BUCKETS 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "BUCKETS 0 accepted");
  match P.parse "CREATE RANGE INDEX t (v)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing ON accepted"

let test_engine_range_scan () =
  let db, run = setup () in
  (* dept has no exact index: BETWEEN on salary goes through the exact
     index, BETWEEN on id full-scans until a range index appears *)
  (match run "CREATE RANGE INDEX ON staff (id) BUCKETS 3" with
  | E.Created -> ()
  | r -> Alcotest.fail (Fmt.str "got %a" E.pp_result r));
  (match run "EXPLAIN SELECT * FROM staff WHERE id BETWEEN 1 AND 4" with
  | E.Plan p ->
      Alcotest.(check bool) "range bucket scan" true
        (String.length p >= 17 && String.sub p 0 17 = "RANGE BUCKET SCAN")
  | _ -> Alcotest.fail "expected plan");
  Alcotest.(check (list string)) "range results, row order"
    [ "grace"; "edsger"; "donald"; "barbara" ]
    (names (run "SELECT name FROM staff WHERE id BETWEEN 1 AND 4"));
  (* the exact index outranks the bucketized one on the same column *)
  (match run "EXPLAIN SELECT * FROM staff WHERE salary BETWEEN 8300 AND 9000" with
  | E.Plan p -> Alcotest.(check bool) "exact index preferred" true (p.[0] = 'I')
  | _ -> Alcotest.fail "expected plan");
  (* maintenance: mutations keep the range index consistent *)
  ignore (run "INSERT INTO staff VALUES (6, 'tony', 'systems', 8000)");
  ignore (run "DELETE FROM staff WHERE id = 2");
  ignore (run "UPDATE staff SET id = 9 WHERE name = 'grace'");
  Alcotest.(check (list string)) "after mutations" [ "donald"; "barbara"; "alan"; "tony" ]
    (names (run "SELECT name FROM staff WHERE id BETWEEN 3 AND 7"));
  (* duplicate registration is refused *)
  match E.exec db "CREATE RANGE INDEX ON staff (id)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate range index accepted"

let test_snapshot_range_paths () =
  let db, run = setup () in
  ignore (run "CREATE RANGE INDEX ON staff (dept)");
  let check_same sql =
    let locked =
      match E.exec db sql with Ok r -> r | Error e -> Alcotest.fail (sql ^ ": " ^ e)
    in
    match E.exec_snapshot (Snap.of_db db) (parse_ok sql) with
    | Some (Ok fast) ->
        Alcotest.(check bool) (sql ^ " matches locked path") true (fast = locked)
    | Some (Error e) -> Alcotest.fail (sql ^ " (snapshot): " ^ e)
    | None -> Alcotest.fail (sql ^ ": snapshot path declined")
  in
  (* exact-indexed column: snapshot mirrors the INDEX SCAN's value order *)
  check_same "SELECT name FROM staff WHERE salary BETWEEN 8300 AND 9000";
  (* range-indexed column: snapshot mirrors the RANGE BUCKET SCAN's row order *)
  check_same "SELECT name FROM staff WHERE dept BETWEEN 'q' AND 's'";
  (* unindexed column: full scan on both sides *)
  check_same "SELECT name FROM staff WHERE name BETWEEN 'a' AND 'c'";
  check_same "SELECT name FROM staff WHERE id BETWEEN 2 AND 11 LIMIT 2"

(* BETWEEN answered through the bucketized structure returns exactly what a
   decrypt-everything point-scan oracle returns, on random workloads *)
let prop_range_index_oracle =
  QCheck2.Test.make ~name:"range index BETWEEN = decrypt-all oracle" ~count:40
    ~print:(fun (vs, lo, hi, buckets) ->
      Printf.sprintf "values=[%s] lo=%d hi=%d buckets=%d"
        (String.concat ";" (List.map string_of_int vs))
        lo hi buckets)
    QCheck2.Gen.(
      let* vs = list_size (int_range 0 60) (int_range 0 100) in
      let* lo = int_range (-5) 105 in
      let* hi = int_range (-5) 105 in
      let* buckets = int_range 1 12 in
      return (vs, lo, hi, buckets))
    (fun (vs, lo, hi, buckets) ->
      let mk with_index =
        let db = Encdb.create ~master:"oracle" ~profile:(Encdb.Fixed Encdb.Eax) () in
        (match E.exec db "CREATE TABLE w (id INT CLEAR, v INT)" with
        | Ok _ -> ()
        | Error e -> failwith e);
        List.iteri
          (fun i v ->
            match E.exec db (Printf.sprintf "INSERT INTO w VALUES (%d, %d)" i v) with
            | Ok _ -> ()
            | Error e -> failwith e)
          vs;
        if with_index then begin
          match E.exec db (Printf.sprintf "CREATE RANGE INDEX ON w (v) BUCKETS %d" buckets) with
          | Ok _ -> ()
          | Error e -> failwith e
        end;
        db
      in
      let indexed = mk true and oracle = mk false in
      let sql = Printf.sprintf "SELECT * FROM w WHERE v BETWEEN %d AND %d" lo hi in
      let s = match P.parse sql with Ok (A.Select s) -> s | _ -> failwith "parse" in
      (* the bucketized path must stay a candidate and, forced, return the
         same bytes the adaptive choice does (the cost model may honestly
         prefer a full scan on wide ranges) *)
      let bucket =
        match
          List.find_opt
            (function Pl.Scan { access = Pl.Bucket_scan _; _ } -> true | _ -> false)
            (E.candidate_plans indexed s)
        with
        | Some p -> p
        | None -> failwith "bucketized candidate missing"
      in
      let run db = match E.exec db sql with Ok r -> r | Error e -> failwith e in
      let locked = run indexed in
      (match E.exec_plan indexed s bucket with
      | Ok r -> if r <> locked then failwith "forced bucket plan diverges"
      | Error e -> failwith e);
      if locked <> run oracle then false
      else
        (* and the lock-free snapshot path produces the same bytes *)
        match E.exec_snapshot (Snap.of_db indexed) (A.Select s) with
        | Some (Ok fast) -> fast = locked
        | Some (Error e) -> failwith e
        | None -> failwith "snapshot path declined")

(* The snapshot as the server maintains it: primed empty, then folded one
   change at a time through [Snapshot.apply] while random mutations move
   index keys around — negative ints, NULLs, duplicates and text keys, an
   index created before or after the rows it covers — on two tables.
   Every SELECT along the way (seeks with closed and open bounds, OR/NOT,
   qualified names, ORDER BY DESC with LIMIT, grouped aggregates, and
   JOINs in both declared orders) must be answered by the snapshot and
   answer exactly what the locked engine answers. *)
let prop_snapshot_apply_matches_locked =
  let open QCheck2.Gen in
  let int_lit = frequency [ (8, map string_of_int (int_range (-12) 12)); (1, return "NULL") ] in
  let text_lit =
    frequency
      [ (8, oneofl [ "''"; "'ann'"; "'bob'"; "'Bob'"; "'cy'"; "'dee'" ]); (1, return "NULL") ]
  in
  (* bounds of the column's kind, mostly, and sometimes of another *)
  let int_bound =
    frequency [ (8, map string_of_int (int_range (-15) 15)); (1, oneofl [ "'a'"; "NULL"; "TRUE" ]) ]
  in
  let text_bound = frequency [ (8, oneofl [ "''"; "'a'"; "'bob'"; "'c'"; "'z'" ]); (1, return "-3") ] in
  let cmp = oneofl [ "<"; "<="; ">"; ">=" ] in
  let id = int_range 0 12 in
  let stmt =
    frequency
      [
        (1, oneofl [ "CREATE INDEX ON s (k)"; "CREATE INDEX ON s (name)" ]);
        (1, oneofl [ "CREATE INDEX ON u (sk)"; "CREATE INDEX ON u (tag)" ]);
        (6, map3 (Printf.sprintf "INSERT INTO s VALUES (%d, %s, %s)") id int_lit text_lit);
        (4, map3 (Printf.sprintf "INSERT INTO u VALUES (%d, %s, %s)") id int_lit text_lit);
        (3, map2 (Printf.sprintf "UPDATE s SET k = %s WHERE id = %d") int_lit id);
        (2, map2 (Printf.sprintf "UPDATE u SET sk = %s WHERE id = %d") int_lit id);
        ( 2,
          map3 (Printf.sprintf "UPDATE s SET name = %s WHERE k BETWEEN %d AND %d") text_lit
            (int_range (-12) 12) (int_range (-12) 12) );
        (1, map (Printf.sprintf "DELETE FROM s WHERE id = %d") id);
        (1, map (Printf.sprintf "DELETE FROM s WHERE k = %s") int_lit);
        (1, map (Printf.sprintf "DELETE FROM u WHERE sk > %s") int_lit);
        (2, map (Printf.sprintf "SELECT * FROM s WHERE k = %s") int_lit);
        (2, map (Printf.sprintf "SELECT id, k FROM s WHERE name = %s") text_lit);
        (3, map2 (Printf.sprintf "SELECT * FROM s WHERE k BETWEEN %s AND %s") int_bound int_bound);
        ( 2,
          map2
            (Printf.sprintf "SELECT id, k FROM s WHERE name BETWEEN %s AND %s ORDER BY k DESC LIMIT 4")
            text_bound text_bound );
        (1, map2 (Printf.sprintf "SELECT count(*) FROM s WHERE k BETWEEN %s AND %s") int_bound int_bound);
        (* open bounds, one or two conjuncts *)
        (3, map2 (Printf.sprintf "SELECT id, k FROM s WHERE k %s %s ORDER BY k DESC LIMIT 3") cmp int_bound);
        ( 2,
          map4 (Printf.sprintf "SELECT * FROM s WHERE k %s %s AND name %s %s") cmp int_bound cmp
            text_bound );
        (* OR and NOT: no seek, the residual filter decides *)
        (2, map2 (Printf.sprintf "SELECT id FROM s WHERE k = %s OR name = %s") int_lit text_lit);
        (2, map2 (Printf.sprintf "SELECT * FROM s WHERE NOT k %s %s") cmp int_bound);
        (* qualified single-table names *)
        (2, map (Printf.sprintf "SELECT s.id, s.name FROM s WHERE s.k >= %s ORDER BY s.id DESC") int_bound);
        (* grouped aggregates *)
        ( 2,
          map (Printf.sprintf "SELECT name, count(*), sum(k) FROM s WHERE k > %s GROUP BY name") int_bound );
        (1, return "SELECT sk, count(tag) FROM u GROUP BY sk");
        (* JOINs, both declared orders, seeks on either side *)
        ( 3,
          map2
            (Printf.sprintf
               "SELECT s.id, u.tag FROM s JOIN u ON s.k = u.sk WHERE u.sk BETWEEN %s AND %s ORDER BY \
                u.tag DESC LIMIT 5")
            int_bound int_bound );
        ( 2,
          map2 (Printf.sprintf "SELECT * FROM u JOIN s ON u.sk = s.k WHERE k %s %s") cmp int_bound );
        (2, map (Printf.sprintf "SELECT name, count(*) FROM s JOIN u ON k = sk WHERE tag = %s GROUP BY name") text_lit);
        (1, map (Printf.sprintf "SELECT * FROM s JOIN u ON s.id = u.id WHERE s.id < %d OR tag = 'ann'") id);
      ]
  in
  QCheck2.Test.make ~name:"snapshot folded through apply = locked engine" ~count:60
    ~print:(String.concat ";\n")
    (list_size (int_range 0 50) stmt)
    (fun script ->
      let db = Encdb.create ~master:"snapshot-apply" ~profile:(Encdb.Fixed Encdb.Eax) () in
      let pending = ref [] in
      Encdb.set_on_change db (Some (fun ch -> pending := ch :: !pending));
      let snap = ref (Snap.of_db db) in
      let mutate sql =
        ignore (E.exec db sql);
        snap := List.fold_left Snap.apply !snap (List.rev !pending);
        pending := []
      in
      mutate "CREATE TABLE s (id INT CLEAR, k INT, name TEXT)";
      mutate "CREATE TABLE u (id INT CLEAR, sk INT, tag TEXT)";
      List.for_all
        (fun sql ->
          match P.parse sql with
          | Ok (A.Select _ as select) -> (
              match E.exec_snapshot !snap select with
              | Some fast when fast = E.exec db sql -> true
              | Some _ -> QCheck2.Test.fail_reportf "%s: snapshot answer differs" sql
              | None -> QCheck2.Test.fail_reportf "%s: snapshot declined" sql)
          | Ok _ ->
              mutate sql;
              true
          | Error e -> QCheck2.Test.fail_reportf "%s: %s" sql e)
        script)

(* Past the property's small scripts: 150 rows span several row chunks,
   deletes empty whole chunks and updates move rows between keys; every
   SELECT must still answer exactly what the locked engine answers. *)
let test_snapshot_row_chunks () =
  let db = Encdb.create ~master:"snapshot-chunks" ~profile:(Encdb.Fixed Encdb.Eax) () in
  let pending = ref [] in
  Encdb.set_on_change db (Some (fun ch -> pending := ch :: !pending));
  let snap = ref (Snap.of_db db) in
  let mutate sql =
    (match E.exec db sql with Ok _ -> () | Error e -> Alcotest.failf "%s: %s" sql e);
    snap := List.fold_left Snap.apply !snap (List.rev !pending);
    pending := []
  in
  let check sql =
    match P.parse sql with
    | Ok select -> (
        match E.exec_snapshot !snap select with
        | Some fast when fast = E.exec db sql -> ()
        | Some _ -> Alcotest.failf "%s: snapshot answer differs" sql
        | None -> Alcotest.failf "%s: snapshot declined" sql)
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  let queries () =
    List.iter check
      [
        "SELECT * FROM c";
        "SELECT id FROM c WHERE k = 0";
        "SELECT id FROM c WHERE k = 1 ORDER BY id DESC LIMIT 7";
        "SELECT count(*) FROM c WHERE k BETWEEN 0 AND 1";
        "SELECT k, count(*) FROM c GROUP BY k";
        "SELECT id FROM c WHERE name = 'n7'";
      ]
  in
  mutate "CREATE TABLE c (id INT CLEAR, k INT, name TEXT)";
  mutate "CREATE INDEX ON c (k)";
  for i = 0 to 149 do
    mutate (Printf.sprintf "INSERT INTO c VALUES (%d, %d, 'n%d')" i (i mod 2) (i mod 10))
  done;
  mutate "CREATE INDEX ON c (name)";
  queries ();
  mutate "DELETE FROM c WHERE id < 40";
  mutate "UPDATE c SET k = 2 WHERE id >= 60 AND id < 130";
  queries ();
  mutate "DELETE FROM c WHERE k = 2";
  mutate "UPDATE c SET k = 0 WHERE id >= 140";
  queries ();
  check "SELECT id FROM c WHERE k = 2"

(* An invalid query fails the same way whatever the plan, the data or the
   row source: an unknown column is rejected at resolution, never left to
   the residual filter, which only sees it when some candidate row
   survives the access path. *)
let test_unknown_column_is_data_independent () =
  let db, run = setup () in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE t (id INT CLEAR, k INT)";
      "CREATE INDEX ON t (k)";
      "INSERT INTO t VALUES (1, 10)";
      "INSERT INTO t VALUES (2, 20)";
    ];
  let snap = Snap.of_db db in
  List.iter
    (fun sql ->
      let expect what = function
        | Some (Error e) -> Alcotest.(check string) (what ^ ": " ^ sql) "unknown column nosuch" e
        | Some (Ok r) -> Alcotest.failf "%s: %s answered %a" what sql E.pp_result r
        | None -> Alcotest.failf "%s: %s declined" what sql
      in
      expect "sealed" (Some (E.exec db sql));
      expect "snapshot" (E.exec_snapshot snap (parse_ok sql)))
    [
      "SELECT * FROM t WHERE k = 99 AND nosuch = 1";
      "SELECT * FROM t WHERE k = 10 AND nosuch = 1";
      "SELECT * FROM t WHERE id = 99 AND nosuch = 1";
    ]

let suites =
  suites
  @ [
      ( "sql:snapshot",
        [
          Test_seed.qc prop_snapshot_apply_matches_locked;
          Alcotest.test_case "row chunks match the locked engine" `Quick test_snapshot_row_chunks;
          Alcotest.test_case "unknown column fails whatever the data and source" `Quick
            test_unknown_column_is_data_independent;
        ] );
      ( "sql:range-index",
        [
          Alcotest.test_case "parse CREATE RANGE INDEX" `Quick test_parse_create_range_index;
          Alcotest.test_case "range bucket scan end to end" `Quick test_engine_range_scan;
          Alcotest.test_case "snapshot fast path mirrors range plans" `Quick
            test_snapshot_range_paths;
          Test_seed.qc prop_range_index_oracle;
        ] );
    ]
