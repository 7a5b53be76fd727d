module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table
module Walker = Secdb_query.Walker
module Encdb = Secdb.Encdb
module Metrics = Secdb_obs.Metrics
module Obs = Secdb_obs.Obs

type outcome =
  | Rows of { columns : string list; rows : Value.t list list }
  | Affected of int
  | Created
  | Plan of string

let ( let* ) = Result.bind

(* --- predicate evaluation ------------------------------------------------ *)

(* [resolve] has checked every column and operand, so evaluation cannot fail *)
let eval_operand schema row = function
  | Ast.Col c -> row.(Schema.col_index schema c)
  | Ast.Lit v -> v
  | e -> invalid_arg (Fmt.str "unresolved operand %a" Ast.pp_expr e)

(* SQL-ish semantics: any comparison involving NULL is false *)
let compare_values op a b =
  if a = Value.Null || b = Value.Null then false
  else
    let c = Value.compare a b in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0

let rec eval schema row = function
  | Ast.Cmp (op, a, b) -> compare_values op (eval_operand schema row a) (eval_operand schema row b)
  | Ast.Between (e, lo, hi) ->
      let v = eval_operand schema row e in
      compare_values Ast.Ge v (eval_operand schema row lo)
      && compare_values Ast.Le v (eval_operand schema row hi)
  | Ast.And (a, b) -> eval schema row a && eval schema row b
  | Ast.Or (a, b) -> eval schema row a || eval schema row b
  | Ast.Not e -> not (eval schema row e)
  | (Ast.Col _ | Ast.Lit _) as e -> invalid_arg (Fmt.str "unresolved predicate %a" Ast.pp_expr e)

(* --- row sources -----------------------------------------------------------

   One executor runs over two row sources: the sealed database, whose
   every cell read is an authenticated decryption (through the index
   walker in [mode]), and a published {!Snapshot.t}, which already holds
   the authenticated plaintext.  Resolution, joins and the
   filter/sort/limit/projection tail are shared; only schema lookup and
   the access-path fetch look at the source. *)

type source = Sealed of Encdb.t * Walker.mode | Plain of Snapshot.t

let schema_of src table =
  match src with
  | Sealed (db, _) -> (
      match Encdb.table db table with t -> Some (Etable.schema t) | exception Not_found -> None)
  | Plain snap -> Option.map Snapshot.schema (Snapshot.table snap table)

(* --- name resolution ------------------------------------------------------

   The planner and executor work on a [resolved] select: for a single
   table every [table.column] reference is stripped back to the bare
   column; for a join every reference is qualified (unqualified names
   resolve against both schemas, erroring when ambiguous) and the result
   schema is the two tables' columns under their qualified names, left
   table first — declared order, independent of which side the planner
   later makes the outer.  Every column reference must name a column of
   the result schema and every comparison operand must be a column or a
   literal, so an invalid query fails here — the same way whatever the
   plan, the data or the row source. *)

type resolved = {
  rs : Ast.select;
  schema : Schema.t;
  join : (string * string * string * string) option;
      (** (left table, left col, right table, right col) of the ON clause,
          base column names *)
}

exception Resolve of string

let schema_of_exn src table =
  match schema_of src table with
  | Some schema -> schema
  | None -> raise (Resolve (Printf.sprintf "unknown table %s" table))

(* rewrite every column reference through [f], checking the shape of the
   WHERE clause on the way *)
let map_cols f s =
  let operand = function
    | Ast.Col c -> Ast.Col (f c)
    | Ast.Lit _ as e -> e
    | e -> raise (Resolve (Fmt.str "expected a column or literal, got %a" Ast.pp_expr e))
  in
  let rec pred = function
    | Ast.Cmp (op, a, b) -> Ast.Cmp (op, operand a, operand b)
    | Ast.Between (a, lo, hi) -> Ast.Between (operand a, operand lo, operand hi)
    | Ast.And (a, b) -> Ast.And (pred a, pred b)
    | Ast.Or (a, b) -> Ast.Or (pred a, pred b)
    | Ast.Not a -> Ast.Not (pred a)
    | (Ast.Col _ | Ast.Lit _) as e -> raise (Resolve (Fmt.str "not a predicate: %a" Ast.pp_expr e))
  in
  let item = function
    | Ast.Field c -> Ast.Field (f c)
    | Ast.Aggregate (fn, col) -> Ast.Aggregate (fn, Option.map f col)
  in
  (* explicit order: the first invalid reference names the error *)
  let where = Option.map pred s.Ast.where in
  let order_by = Option.map (fun (c, d) -> (f c, d)) s.Ast.order_by in
  let group_by = Option.map f s.Ast.group_by in
  let items = Option.map (List.map item) s.Ast.items in
  { s with Ast.items; where; group_by; order_by }

(* [f], then require the result to name a column of [schema] *)
let checked schema f c =
  let c = f c in
  match Schema.col_index schema c with
  | _ -> c
  | exception Not_found -> raise (Resolve (Printf.sprintf "unknown column %s" c))

let resolve_exn src (s : Ast.select) =
  match s.Ast.join with
  | None ->
      let schema = schema_of_exn src s.Ast.table in
      let strip c =
        match Planner.split_qual c with
        | Some (t, b) when t = s.Ast.table -> b
        | Some (t, _) -> raise (Resolve (Printf.sprintf "unknown table %s in reference %s" t c))
        | None -> c
      in
      { rs = map_cols (checked schema strip) s; schema; join = None }
  | Some j ->
      let t1 = s.Ast.table and t2 = j.Ast.jtable in
      if t1 = t2 then raise (Resolve (Printf.sprintf "self-join on %s is not supported" t1));
      let s1 = schema_of_exn src t1 and s2 = schema_of_exn src t2 in
      let has sc b = match Schema.col_index sc b with _ -> true | exception Not_found -> false in
      let qualify c =
        match Planner.split_qual c with
        | Some (t, _) when t <> t1 && t <> t2 ->
            raise (Resolve (Printf.sprintf "unknown table %s in reference %s" t c))
        | Some _ -> c
        | None ->
            let in1 = has s1 c and in2 = has s2 c in
            if in1 && in2 then raise (Resolve (Printf.sprintf "ambiguous column %s" c))
            else if in1 then t1 ^ "." ^ c
            else if in2 then t2 ^ "." ^ c
            else raise (Resolve (Printf.sprintf "unknown column %s" c))
      in
      let qualified t sc =
        List.init (Schema.ncols sc) (fun i ->
            let c = Schema.col sc i in
            { c with Schema.name = t ^ "." ^ c.Schema.name })
      in
      let schema =
        Schema.v ~table_name:(t1 ^ "+" ^ t2) (qualified t1 s1 @ qualified t2 s2)
      in
      (* the ON clause's two sides must land on the two distinct tables;
         normalize to (left table, left col, right table, right col) *)
      let on_side c =
        match Planner.split_qual (checked schema qualify c) with
        | Some tb -> tb
        | None -> assert false
      in
      let (ta, ca) = on_side j.Ast.on_left and (tb, cb) = on_side j.Ast.on_right in
      if ta = tb then
        raise (Resolve (Printf.sprintf "join ON must relate %s to %s" t1 t2));
      let c1, c2 = if ta = t1 then (ca, cb) else (cb, ca) in
      { rs = map_cols (checked schema qualify) s; schema; join = Some (t1, c1, t2, c2) }

let resolve src s = try Ok (resolve_exn src s) with Resolve e -> Error e

(* --- planning ------------------------------------------------------------ *)

let plan_of_select db (s : Ast.select) =
  match resolve (Sealed (db, Walker.Corrected)) s with
  | Ok r -> Planner.choose db r.rs ~join:r.join
  | Error e -> failwith e

let candidate_plans db (s : Ast.select) =
  match resolve (Sealed (db, Walker.Corrected)) s with
  | Ok r -> Planner.candidates db r.rs ~join:r.join
  | Error e -> failwith e

let pp_plan = Plan.pp

(* --- projection and aggregation ------------------------------------------ *)

let is_aggregate = function Ast.Aggregate _ -> true | Ast.Field _ -> false

(* fold an aggregate over a group of rows *)
let aggregate schema fn col rows =
  let values =
    Option.map
      (fun c ->
        let i = Schema.col_index schema c in
        List.map (fun (_, vs) -> vs.(i)) rows)
      col
  in
  match (fn, values) with
  | Ast.Count, None -> Ok (Value.Int (Int64.of_int (List.length rows)))
  | Ast.Count, Some vs ->
      Ok (Value.Int (Int64.of_int (List.length (List.filter (fun v -> v <> Value.Null) vs))))
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
      Error "aggregate requires a column"
  | (Ast.Min | Ast.Max), Some vs -> (
      let vs = List.filter (fun v -> v <> Value.Null) vs in
      match vs with
      | [] -> Ok Value.Null
      | v :: rest ->
          let pick cmp a b = if cmp (Value.compare a b) then a else b in
          Ok
            (List.fold_left
               (pick (if fn = Ast.Min then fun d -> d < 0 else fun d -> d > 0))
               v rest))
  | (Ast.Sum | Ast.Avg), Some vs -> (
      let ints =
        List.filter_map (function Value.Int i -> Some i | _ -> None)
          (List.filter (fun v -> v <> Value.Null) vs)
      in
      let non_int = List.exists (function Value.Null | Value.Int _ -> false | _ -> true) vs in
      if non_int then Error "SUM/AVG require an INT column"
      else
        match (fn, ints) with
        | _, [] -> Ok Value.Null
        | Ast.Sum, ints -> Ok (Value.Int (List.fold_left Int64.add 0L ints))
        | Ast.Avg, ints ->
            Ok
              (Value.Int
                 (Int64.div (List.fold_left Int64.add 0L ints)
                    (Int64.of_int (List.length ints))))
        | _ -> assert false)

(* final projection: plain fields, or aggregates (optionally grouped) *)
let project schema (s : Ast.select) rows =
  let items =
    match s.Ast.items with
    | None -> List.init (Schema.ncols schema) (fun i -> Ast.Field (Schema.col schema i).Schema.name)
    | Some items -> items
  in
  let columns = List.map Ast.sel_item_name items in
  if List.exists is_aggregate items then begin
    let* groups =
      match s.Ast.group_by with
      | None -> Ok [ (Value.Null, rows) ]
      | Some c ->
          let i = Schema.col_index schema c in
          let tbl = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun (row, vs) ->
              let k = vs.(i) in
              match Hashtbl.find_opt tbl (Value.encode k) with
              | Some l -> l := (row, vs) :: !l
              | None ->
                  Hashtbl.add tbl (Value.encode k) (ref [ (row, vs) ]);
                  order := k :: !order)
            rows;
          Ok
            (List.rev_map
               (fun k -> (k, List.rev !(Hashtbl.find tbl (Value.encode k))))
               !order
            |> List.sort (fun (a, _) (b, _) -> Value.compare a b))
    in
    let* out =
      List.fold_left
        (fun acc (key, group) ->
          let* acc = acc in
          let* cells =
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match item with
                | Ast.Field c ->
                    if s.Ast.group_by = Some c then Ok (key :: acc)
                    else
                      Error
                        (Printf.sprintf "column %s must appear in GROUP BY or an aggregate" c)
                | Ast.Aggregate (fn, col) ->
                    let* v = aggregate schema fn col group in
                    Ok (v :: acc))
              (Ok []) items
            |> Result.map List.rev
          in
          Ok (cells :: acc))
        (Ok []) groups
      |> Result.map List.rev
    in
    Ok (Rows { columns; rows = out })
  end
  else begin
    let col_ids =
      List.map
        (function Ast.Field c -> Schema.col_index schema c | Ast.Aggregate _ -> assert false)
        items
    in
    if s.Ast.group_by <> None then Error "GROUP BY requires aggregates in the select list"
    else
      Ok
        (Rows
           {
             columns;
             rows = List.map (fun (_, values) -> List.map (fun i -> values.(i)) col_ids) rows;
           })
  end

(* --- execution ------------------------------------------------------------ *)

(* every access path hands its candidates over in ascending row order —
   the canonical order that makes all plans, over either row source,
   byte-identical before the shared filter/sort/limit tail *)
let canonical rows = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) rows

let access_rows src ~table access =
  let* rows =
    match (src, access) with
    | Sealed (db, mode), Plan.Index_probe { col; lo; hi; _ } ->
        Encdb.select_range db ~table ~col ~mode ?lo ?hi ()
    | Sealed (db, _), Plan.Bucket_scan { col; lo; hi; _ } ->
        Encdb.select_range_bucketed db ~table ~col ?lo ?hi ()
    | Sealed (db, _), Plan.Seq_scan -> Etable.select_result (Encdb.table db table) (fun _ -> true)
    | Plain snap, access -> (
        let ts = Option.get (Snapshot.table snap table) in
        match access with
        | Plan.Index_probe { col; lo; hi; _ } ->
            Ok (Option.get (Snapshot.index_range ts ~col ?lo ?hi ()))
        | Plan.Seq_scan | Plan.Bucket_scan _ -> Ok (Snapshot.all_rows ts))
  in
  Ok (canonical rows)

(* inner equi-join.  Output rows are keyed (left row, right row) and the
   values are left table's cells then right table's, whatever side the
   plan made the outer; Null join keys match nothing on either side. *)
let join_rows src ~outer ~outer_access ~inner ~strategy ~outer_col ~inner_col ~swapped =
  let oi = Schema.col_index (Option.get (schema_of src outer)) outer_col in
  let ii = Schema.col_index (Option.get (schema_of src inner)) inner_col in
  let combine (orow, ovs) (irow, ivs) =
    if swapped then ((irow, orow), Array.append ivs ovs)
    else ((orow, irow), Array.append ovs ivs)
  in
  let* outer_rows = access_rows src ~table:outer outer_access in
  let* pairs =
    match strategy with
    | Plan.Loop_join ->
        (* materialize the inner once, hash it on the join key *)
        let* inner_rows = access_rows src ~table:inner Plan.Seq_scan in
        let buckets = Hashtbl.create 64 in
        List.iter
          (fun ((_, ivs) as ir) ->
            let k = ivs.(ii) in
            if k <> Value.Null then begin
              match Hashtbl.find_opt buckets (Value.encode k) with
              | Some l -> l := ir :: !l
              | None -> Hashtbl.add buckets (Value.encode k) (ref [ ir ])
            end)
          (List.rev inner_rows);
        Ok
          (List.concat_map
             (fun ((_, ovs) as orow) ->
               let k = ovs.(oi) in
               if k = Value.Null then []
               else
                 match Hashtbl.find_opt buckets (Value.encode k) with
                 | None -> []
                 | Some l ->
                     List.filter_map
                       (fun ((_, ivs) as ir) ->
                         if compare_values Ast.Eq ivs.(ii) k then Some (combine orow ir)
                         else None)
                       !l)
             outer_rows)
    | Plan.Index_loop_join ->
        (* one exact-index probe on the inner table per outer row *)
        let probe k =
          Plan.Index_probe { col = inner_col; lo = Some k; hi = Some k; estimate = 1.0 }
        in
        List.fold_left
          (fun acc ((_, ovs) as orow) ->
            let* acc = acc in
            let k = ovs.(oi) in
            if k = Value.Null then Ok acc
            else
              let* matches = access_rows src ~table:inner (probe k) in
              let matches =
                List.filter (fun (_, ivs) -> compare_values Ast.Eq ivs.(ii) k) matches
              in
              Ok (List.rev_append (List.rev_map (combine orow) matches) acc))
          (Ok []) outer_rows
        |> Result.map List.rev
  in
  Ok (List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) pairs)

(* residual filter, order, limit, projection — the one tail every plan
   over either row source runs, so all produce identical bytes *)
let finish_select schema (s : Ast.select) candidates =
  (* residual filter: the full predicate, always *)
  let filtered =
    match s.Ast.where with
    | None -> candidates
    | Some where -> List.filter (fun (_, values) -> eval schema values where) candidates
  in
  let ordered =
    match s.Ast.order_by with
    | None -> filtered
    | Some (c, dir) ->
        let i = Schema.col_index schema c in
        let cmp (_, a) (_, b) =
          let d = Value.compare a.(i) b.(i) in
          match dir with Ast.Asc -> d | Ast.Desc -> -d
        in
        List.stable_sort cmp filtered
  in
  let limited =
    match s.Ast.limit with
    | None -> ordered
    | Some n ->
        let rec take k = function
          | [] -> []
          | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
        in
        take n ordered
  in
  project schema s limited

(* per-plan latency histograms feed the cost model's feedback input; only
   touched while obs is on so obs-off processes keep an empty registry,
   and only for the sealed source the cost model prices *)
let timed src plan f =
  match src with
  | Sealed _ when Obs.on () ->
      Metrics.time (Metrics.histogram ~labels:[ ("plan", Plan.name plan) ] "sql.plan_latency") f
  | Sealed _ | Plain _ -> f ()

let exec_resolved src (r : resolved) plan =
  timed src plan (fun () ->
      match (plan, r.join) with
      | Plan.Scan { table; access; _ }, None ->
          let* rows = access_rows src ~table access in
          finish_select r.schema r.rs rows
      | ( Plan.Join { outer; outer_access; inner; strategy; outer_col; inner_col; swapped; _ },
          Some _ ) ->
          let* rows =
            join_rows src ~outer ~outer_access ~inner ~strategy ~outer_col ~inner_col ~swapped
          in
          finish_select r.schema r.rs rows
      | _ -> Error "plan does not match the query's shape")

let run_select db ~mode (s : Ast.select) =
  let src = Sealed (db, mode) in
  let* r = resolve src s in
  exec_resolved src r (Planner.choose db r.rs ~join:r.join)

(* execute under a caller-chosen plan (bench and oracle tests force every
   candidate and compare bytes) *)
let exec_plan db ?(mode = Walker.Corrected) (s : Ast.select) plan =
  let src = Sealed (db, mode) in
  let* r = resolve src s in
  exec_resolved src r plan

(* --- snapshot plans --------------------------------------------------------

   The snapshot has no {!Encdb} to price plans with, so its plan follows a
   fixed rule instead of a cost model: seek the first sargable bound on a
   key-indexed column, otherwise scan.  A join's outer is the first table,
   in declared order, with such a bound (otherwise the left table); the
   inner is probed per outer row when its join column is key-indexed,
   hashed once otherwise. *)

let snapshot_plan snap (r : resolved) =
  let seek table col_of =
    let ts = Option.get (Snapshot.table snap table) in
    let indexed c =
      Option.fold (col_of c) ~none:false ~some:(fun col -> Snapshot.has_index ts ~col)
    in
    match Option.map (Planner.collect_bounds ~eligible:indexed) r.rs.Ast.where with
    | Some ((c, (lo, hi)) :: _) ->
        Some (Plan.Index_probe { col = Option.get (col_of c); lo; hi; estimate = 1.0 })
    | None | Some [] -> None
  in
  match r.join with
  | None ->
      let table = r.rs.Ast.table in
      let access = Option.value (seek table Option.some) ~default:Plan.Seq_scan in
      Plan.Scan { table; access; cost = 0.0 }
  | Some (t1, c1, t2, c2) ->
      let col_of t c =
        match Planner.split_qual c with Some (t', b) when t' = t -> Some b | _ -> None
      in
      let sides = [ (t1, c1, t2, c2, false); (t2, c2, t1, c1, true) ] in
      let (outer, outer_col, inner, inner_col, swapped), outer_access =
        List.find_map
          (fun ((ot, _, _, _, _) as side) ->
            Option.map (fun a -> (side, a)) (seek ot (col_of ot)))
          sides
        |> Option.value ~default:(List.hd sides, Plan.Seq_scan)
      in
      let strategy =
        if Snapshot.has_index (Option.get (Snapshot.table snap inner)) ~col:inner_col then
          Plan.Index_loop_join
        else Plan.Loop_join
      in
      Plan.Join { outer; outer_access; inner; strategy; outer_col; inner_col; swapped; cost = 0.0 }

let protect f =
  try f () with
  | Invalid_argument e | Failure e -> Error e
  | Not_found -> Error "no such table or column"

let exec_snapshot snap = function
  | Ast.Select s when List.for_all (fun t -> Snapshot.table snap t <> None) (Ast.select_tables s) ->
      Some
        (protect (fun () ->
             let src = Plain snap in
             let* r = resolve src s in
             exec_resolved src r (snapshot_plan snap r)))
  | _ -> None

(* rows matching a WHERE clause, for UPDATE/DELETE *)
let matching_rows db ~mode ~table where =
  let s =
    {
      Ast.items = None;
      table;
      join = None;
      where;
      group_by = None;
      order_by = None;
      limit = None;
    }
  in
  let src = Sealed (db, mode) in
  let* r = resolve src s in
  let* candidates =
    match Planner.choose db r.rs ~join:None with
    | Plan.Scan { table = t; access; _ } -> access_rows src ~table:t access
    | Plan.Join _ -> assert false
  in
  let keep (_, values) = Option.fold r.rs.Ast.where ~none:true ~some:(eval r.schema values) in
  Ok (List.map fst (List.filter keep candidates))

let exec_stmt db ?(mode = Walker.Corrected) stmt =
  match stmt with
  | Ast.Select s -> protect (fun () -> run_select db ~mode s)
  | Ast.Explain s ->
      protect (fun () -> Ok (Plan (Fmt.str "%a" Plan.pp (plan_of_select db s))))
  | Ast.Insert { table; values } ->
      protect (fun () ->
          let _row = Encdb.insert db ~table values in
          Ok (Affected 1))
  | Ast.Update { table; col; value; where } ->
      protect (fun () ->
          let* rows = matching_rows db ~mode ~table where in
          let* () =
            List.fold_left
              (fun acc row ->
                let* () = acc in
                Encdb.update db ~table ~row ~col value)
              (Ok ()) rows
          in
          Ok (Affected (List.length rows)))
  | Ast.Delete { table; where } ->
      protect (fun () ->
          let* rows = matching_rows db ~mode ~table where in
          let* () =
            List.fold_left
              (fun acc row ->
                let* () = acc in
                Encdb.delete_row db ~table ~row)
              (Ok ()) rows
          in
          Ok (Affected (List.length rows)))
  | Ast.Create_table { name; cols } ->
      protect (fun () ->
          let columns =
            List.map
              (fun (c : Ast.column_def) ->
                Schema.column ~protection:c.Ast.col_protection c.Ast.col_name c.Ast.col_type)
              cols
          in
          Encdb.create_table db (Schema.v ~table_name:name columns);
          Ok Created)
  | Ast.Create_index { table; col } ->
      protect (fun () ->
          Encdb.create_index db ~table ~col;
          Ok Created)
  | Ast.Create_range_index { table; col; buckets } ->
      protect (fun () ->
          Encdb.create_range_index db ~table ~col ?buckets ();
          Ok Created)

let exec db ?mode input =
  let* stmt = Parser.parse input in
  exec_stmt db ?mode stmt

let exec_script db ?mode input =
  let* stmts = Parser.parse_many input in
  List.fold_left
    (fun acc stmt ->
      let* acc = acc in
      let* outcome = exec_stmt db ?mode stmt in
      Ok ((stmt, outcome) :: acc))
    (Ok []) stmts
  |> Result.map List.rev

let pp_result ppf = function
  | Affected n -> Fmt.pf ppf "%d row(s) affected" n
  | Created -> Fmt.string ppf "created"
  | Plan p -> Fmt.pf ppf "plan: %s" p
  | Rows { columns; rows } ->
      let cell v = Fmt.str "%a" Value.pp v in
      let table = List.map (List.map cell) rows in
      let widths =
        List.mapi
          (fun i c ->
            List.fold_left
              (fun w row -> max w (String.length (List.nth row i)))
              (String.length c) table)
          columns
      in
      let pad s w = s ^ String.make (w - String.length s) ' ' in
      let render_row cells =
        String.concat " | " (List.map2 pad cells widths)
      in
      Fmt.pf ppf "%s@." (render_row columns);
      Fmt.pf ppf "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
      List.iter (fun row -> Fmt.pf ppf "%s@." (render_row row)) table;
      Fmt.pf ppf "(%d row(s))" (List.length rows)
