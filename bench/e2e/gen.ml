(* Workloads, dataset and request streams.  Every value, key and payload
   is drawn from --seed; the server only ever receives the generated SQL. *)

module Rng = Secdb_util.Rng
module Value = Secdb_db.Value
module Ast = Secdb_sql.Ast

type workload = Point_lookup | Insert_durable | Range_mixed | Join_report

let all = [ Point_lookup; Insert_durable; Range_mixed; Join_report ]

let name = function
  | Point_lookup -> "point-lookup"
  | Insert_durable -> "insert-durable"
  | Range_mixed -> "range-mixed"
  | Join_report -> "join-report"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Offered open-loop rates (req/s): [lo] exposes the idle wake-up path,
   [hi] the busy one.  Both sit well under each workload's closed-loop
   capacity, so the queue stays bounded. *)
let rates = function
  | Point_lookup -> (2000., 8000.)
  | Insert_durable -> (400., 1500.)
  | Range_mixed -> (90., 220.)
  | Join_report -> (80., 150.)

let p99_limit_ms = function
  | Point_lookup -> 2.
  | Insert_durable -> 10.
  | Range_mixed -> 15.
  | Join_report -> 25.

(* One generated statement.  [user_bytes] is the summed [Value.encode]
   length of the values it writes: the denominator of storage
   amplification. *)
type stmt = { sql : string; user_bytes : int; write : bool }

let query sql = { sql; user_bytes = 0; write = false }
let ddl sql = { sql; user_bytes = 0; write = true }

let insert table values =
  {
    sql = Ast.to_sql (Ast.Insert { table; values });
    user_bytes = List.fold_left (fun n v -> n + String.length (Value.encode v)) 0 values;
    write = true;
  }

(* An independent generator per purpose, fixed by the seed and a tag. *)
let rng ~seed tag =
  let mix = Int64.mul (Int64.of_int seed) 1_000_003L in
  Rng.create ~seed:(Int64.add mix (Int64.of_int (Hashtbl.hash tag))) ()

let int i = Value.Int (Int64.of_int i)

(* --- dataset --------------------------------------------------------------

   [orders] (20,000 rows at full scale) with [cust = i mod 500], [total]
   uniform on [0, 100000) and a fixed-width note; [customers] (500 rows)
   joins on [cust].  The write workload gets its own pair of tables,
   [accounts] and [events], which route to different shards.  Indexes are
   built after the load, as a bulk import would. *)

let customers = 500
let total_range = 100_000
let owners = 5_000

type dataset = {
  rows : int;  (** preloaded [orders] rows; [accounts] and [events] get half each *)
  totals : int array;  (** [orders.total] of preloaded row [i] *)
  present : (int, unit) Hashtbl.t;  (** every preloaded total *)
}

let dataset ~seed ~rows =
  let r = rng ~seed "orders" in
  let totals = Array.init rows (fun _ -> Rng.int r total_range) in
  let present = Hashtbl.create rows in
  Array.iter (fun t -> Hashtbl.replace present t ()) totals;
  { rows; totals; present }

let order_row id total =
  [ int id; int (id mod customers); int total; Value.Text (Printf.sprintf "note-%06d" id) ]

let owner i = Value.Text (Printf.sprintf "owner-%05d" i)
let account_row id r = [ int id; owner (Rng.int r owners); int (Rng.int r 1_000_000) ]
let account_rows ds = ds.rows / 2

(* The set-up stream: one statement list per connection, loaded in
   parallel (each connection owns its tables, so per-table order is the
   connection's order), then the index builds on connection 0. *)
type setup = { load : stmt list array; indexes : stmt list }

let setup wl ~seed ds =
  match wl with
  | Insert_durable ->
      let table name =
        let r = rng ~seed name in
        ddl (Printf.sprintf "CREATE TABLE %s (id INT CLEAR, owner TEXT, balance INT)" name)
        :: List.init (account_rows ds) (fun i -> insert name (account_row i r))
      in
      {
        load = [| table "accounts"; table "events" |];
        indexes =
          [ ddl "CREATE INDEX ON accounts (owner)"; ddl "CREATE INDEX ON events (owner)" ];
      }
  | Point_lookup | Range_mixed | Join_report ->
      let r = rng ~seed "customers" in
      {
        load =
          [|
            ddl "CREATE TABLE orders (id INT CLEAR, cust INT, total INT, note TEXT)"
            :: List.init ds.rows (fun i -> insert "orders" (order_row i ds.totals.(i)));
            ddl "CREATE TABLE customers (id INT CLEAR, cust INT, region INT)"
            :: List.init customers (fun i ->
                   insert "customers" [ int i; int i; int (Rng.int r 20) ]);
          |];
        indexes =
          [
            ddl "CREATE INDEX ON orders (total)";
            ddl "CREATE RANGE INDEX ON orders (total) BUCKETS 16";
            ddl "CREATE INDEX ON customers (cust)";
          ];
      }

let setup_stmts s = List.concat (Array.to_list s.load) @ s.indexes

(* --- request streams ------------------------------------------------------ *)

(* One connection's request stream.  Each connection draws from its own
   generator, so its sequence is fixed by the seed whatever the thread
   interleaving. *)
type stream = {
  wl : workload;
  ds : dataset;
  r : Rng.t;
  conn : int;
  mutable next_id : int;  (** id of this connection's next inserted row *)
}

let stream wl ds ~seed ~tag ~conn =
  {
    wl;
    ds;
    r = rng ~seed (name wl, tag, conn);
    conn;
    next_id = (match wl with Insert_durable -> account_rows ds | _ -> ds.rows);
  }

let fresh_id s =
  let id = s.next_id in
  s.next_id <- id + 1;
  id

let point s =
  let total =
    if Rng.int s.r 10 < 9 then s.ds.totals.(Rng.int s.r s.ds.rows)
    else
      let rec miss () =
        let v = Rng.int s.r total_range in
        if Hashtbl.mem s.ds.present v then miss () else v
      in
      miss ()
  in
  query (Printf.sprintf "SELECT * FROM orders WHERE total = %d" total)

let range s =
  let lo = Rng.int s.r (total_range - 500) in
  query
    (Printf.sprintf "SELECT id, total FROM orders WHERE total BETWEEN %d AND %d" lo (lo + 500))

let join s =
  let lo = Rng.int s.r (total_range - 300) in
  query
    (Printf.sprintf
       "SELECT * FROM orders JOIN customers ON orders.cust = customers.cust WHERE total BETWEEN %d \
        AND %d ORDER BY region LIMIT 20"
       lo (lo + 300))

(* The next request of a connection's stream.  Writes to one table only
   ever ride one connection — [accounts] on 0, [events] on 1, and
   range-mixed's [orders] inserts on 0 (a fifth of its requests, so a
   tenth overall) — so the server applies each table's writes in the
   generator's order and an in-process reference can replay them exactly. *)
let next s =
  match s.wl with
  | Point_lookup -> point s
  | Join_report -> join s
  | Range_mixed ->
      if s.conn = 0 && Rng.int s.r 5 = 0 then
        let id = fresh_id s in
        insert "orders" (order_row id (Rng.int s.r total_range))
      else range s
  | Insert_durable ->
      let id = fresh_id s in
      insert (if s.conn = 0 then "accounts" else "events") (account_row id s.r)

(* The fixed verification set sent after every round: 50 point, 20 range
   and 10 join queries plus a count per table.  The accounts/events pair
   gets 16 point and 4 range queries and no JOIN: its tables live on two
   shards, and the planner answers text predicates with a full decrypting
   scan, so each of its queries costs the in-process reference tens of
   milliseconds. *)
let verification wl ds ~seed =
  let s = stream wl ds ~seed ~tag:"verify" ~conn:0 in
  match wl with
  | Insert_durable ->
      let tables = [| "accounts"; "events" |] in
      List.init 16 (fun i ->
          query
            (Printf.sprintf "SELECT * FROM %s WHERE owner = 'owner-%05d'" tables.(i land 1)
               (Rng.int s.r owners)))
      @ List.init 4 (fun i ->
            let lo = Rng.int s.r (owners - 20) in
            query
              (Printf.sprintf
                 "SELECT id, balance FROM %s WHERE owner BETWEEN 'owner-%05d' AND 'owner-%05d'"
                 tables.(i land 1) lo (lo + 20)))
      @ [ query "SELECT count(*) FROM accounts"; query "SELECT count(*) FROM events" ]
  | Point_lookup | Range_mixed | Join_report ->
      List.init 50 (fun _ -> point s)
      @ List.init 20 (fun _ -> range s)
      @ List.init 10 (fun _ -> join s)
      @ [ query "SELECT count(*) FROM orders"; query "SELECT count(*) FROM customers" ]
