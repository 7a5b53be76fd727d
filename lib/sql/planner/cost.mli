(** Cost model: price a candidate access path in cell-decrypt units.

    A pure function of the database's row counts, column counts, index
    selectivity estimates and bucket counts.  It reads no metric
    registry and no observed latency, so a plan's cost is the same with
    obs on or off and EXPLAIN output is deterministic. *)

val seq_scan : rows:int -> ncols:int -> float

val index_probe : rows:int -> ncols:int -> estimate:float -> float
(** Tree descent plus fetching the estimated matching rows. *)

val bucket_scan : rows:int -> ncols:int -> estimate:float -> buckets:int -> float
(** Unsealing the covered buckets (at least one — overlap is
    bucket-granular) plus fetching the estimated matching rows. *)

val loop_join :
  outer_cost:float -> outer_out:float -> inner_rows:int -> inner_ncols:int -> float
(** Materialize the inner once, hash-probe per outer row. *)

val index_loop_join :
  outer_cost:float -> outer_out:float -> inner_rows:int -> inner_ncols:int -> float
(** One exact-index descent on the inner table per outer row. *)
