module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table
module Encdb = Secdb.Encdb

(* --- sargable bounds ------------------------------------------------------ *)

let rec conjuncts = function
  | Ast.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* lower/upper bounds a single conjunct puts on a column, if any; strict
   bounds widen to inclusive ones (the residual filter re-tightens) *)
let bounds_of = function
  | Ast.Cmp (op, Ast.Col c, Ast.Lit v) -> (
      match op with
      | Ast.Eq -> Some (c, Some v, Some v)
      | Ast.Le | Ast.Lt -> Some (c, None, Some v)
      | Ast.Ge | Ast.Gt -> Some (c, Some v, None)
      | Ast.Ne -> None)
  | Ast.Cmp (op, Ast.Lit v, Ast.Col c) -> (
      (* mirrored: v op c *)
      match op with
      | Ast.Eq -> Some (c, Some v, Some v)
      | Ast.Ge | Ast.Gt -> Some (c, None, Some v)
      | Ast.Le | Ast.Lt -> Some (c, Some v, None)
      | Ast.Ne -> None)
  | Ast.Between (Ast.Col c, Ast.Lit lo, Ast.Lit hi) -> Some (c, Some lo, Some hi)
  | _ -> None

let merge_bound cmp a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (if cmp (Value.compare a b) then a else b)

(* accumulate bounds per column passing [eligible], preserving the order
   columns first appear in the conjuncts — a deterministic order, never
   hash order *)
let collect_bounds ~eligible where =
  let tbl = (Hashtbl.create 4 : (string, Value.t option * Value.t option) Hashtbl.t) in
  let order = ref [] in
  List.iter
    (fun conj ->
      match bounds_of conj with
      | Some (c, lo, hi) ->
          if eligible c then begin
            let plo, phi = Option.value (Hashtbl.find_opt tbl c) ~default:(None, None) in
            if not (Hashtbl.mem tbl c) then order := c :: !order;
            Hashtbl.replace tbl c
              (merge_bound (fun d -> d > 0) plo lo, merge_bound (fun d -> d < 0) phi hi)
          end
      | None -> ())
    (conjuncts where);
  List.map (fun c -> (c, Hashtbl.find tbl c)) (List.rev !order)

let split_qual c =
  match String.index_opt c '.' with
  | Some i -> Some (String.sub c 0 i, String.sub c (i + 1) (String.length c - i - 1))
  | None -> None

(* --- candidate access paths ----------------------------------------------- *)

let table_ncols db table = Schema.ncols (Etable.schema (Encdb.table db table))

(* every access path for one table, with its cost.  [col_of] maps a WHERE
   column reference to this table's base column name ([None] if the
   reference belongs to another table). *)
let access_candidates db ~table ~col_of where =
  let rows = Encdb.live_rows db ~table in
  let ncols = table_ncols db table in
  let seq = (Plan.Seq_scan, Cost.seq_scan ~rows ~ncols) in
  match where with
  | None -> [ seq ]
  | Some w ->
      let eligible has c = match col_of c with Some b -> has ~table ~col:b | None -> false in
      let estimate_of b lo hi =
        Option.value ~default:1.0 (Encdb.index_selectivity db ~table ~col:b ~lo ~hi)
      in
      let exact =
        collect_bounds ~eligible:(eligible (Encdb.has_index db)) w
        |> List.map (fun (c, (lo, hi)) ->
               let b = Option.get (col_of c) in
               let estimate = estimate_of b lo hi in
               ( Plan.Index_probe { col = b; lo; hi; estimate },
                 Cost.index_probe ~rows ~ncols ~estimate ))
      in
      let range =
        collect_bounds ~eligible:(eligible (Encdb.has_range_index db)) w
        |> List.map (fun (c, (lo, hi)) ->
               let b = Option.get (col_of c) in
               let estimate = estimate_of b lo hi in
               let buckets =
                 Option.value ~default:1 (Encdb.range_index_nbuckets db ~table ~col:b)
               in
               ( Plan.Bucket_scan { col = b; lo; hi; buckets; estimate },
                 Cost.bucket_scan ~rows ~ncols ~estimate ~buckets ))
      in
      (seq :: exact) @ range

(* --- candidate plans ------------------------------------------------------ *)

(* [s] must already be resolved (column references qualified for joins,
   unqualified for single-table selects); [join] carries the resolved
   (outer table, outer col, inner table, inner col) of the ON clause. *)
let candidates db (s : Ast.select) ~join =
  let plans =
    match join with
    | None ->
        access_candidates db ~table:s.Ast.table ~col_of:Option.some s.Ast.where
        |> List.map (fun (access, cost) -> Plan.Scan { table = s.Ast.table; access; cost })
    | Some (t1, c1, t2, c2) ->
        [ (t1, c1, t2, c2, false); (t2, c2, t1, c1, true) ]
        |> List.concat_map (fun (ot, oc, it, ic, swapped) ->
               let col_of c =
                 match split_qual c with Some (t, b) when t = ot -> Some b | _ -> None
               in
               let orows = Encdb.live_rows db ~table:ot in
               let inner_rows = Encdb.live_rows db ~table:it in
               let inner_ncols = table_ncols db it in
               access_candidates db ~table:ot ~col_of s.Ast.where
               |> List.concat_map (fun (access, outer_cost) ->
                      let outer_out = Plan.access_estimate access *. float_of_int orows in
                      let mk strategy cost =
                        Plan.Join
                          {
                            outer = ot;
                            outer_access = access;
                            inner = it;
                            strategy;
                            outer_col = oc;
                            inner_col = ic;
                            swapped;
                            cost;
                          }
                      in
                      let loop =
                        mk Plan.Loop_join
                          (Cost.loop_join ~outer_cost ~outer_out ~inner_rows ~inner_ncols)
                      in
                      if Encdb.has_index db ~table:it ~col:ic then
                        [
                          loop;
                          mk Plan.Index_loop_join
                            (Cost.index_loop_join ~outer_cost ~outer_out ~inner_rows
                               ~inner_ncols);
                        ]
                      else [ loop ]))
  in
  List.sort Plan.compare plans

let choose db s ~join = List.hd (candidates db s ~join)
