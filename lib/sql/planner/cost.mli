(** Cost model: price a candidate access path in cell-decrypt units.

    Inputs come from the live {!Secdb_obs.Metrics} registry when the obs
    switch is on — pager and paged-B⁺-tree cache hit rates — with static
    fallbacks (everything cached) when it is off, so EXPLAIN output under
    cram is deterministic.  No input depends on observed latency: an
    in-memory plan's cost is the same with obs on or off. *)

type inputs = {
  pager_hit_rate : float;  (** fraction of pager lookups served from cache, 0..1 *)
  pbt_hit_rate : float;  (** fraction of paged-B⁺-tree node reads served from cache *)
}

val static_inputs : inputs
(** All caches hot — the obs-off fallback. *)

val live : unit -> inputs
(** Read the registry when {!Secdb_obs.Obs.on}, else {!static_inputs}. *)

val seq_scan : rows:int -> ncols:int -> float

val index_probe : inputs -> rows:int -> ncols:int -> estimate:float -> paged:bool -> float
(** Tree descent (pricier when paged and caches are cold) plus fetching
    the estimated matching rows. *)

val bucket_scan : rows:int -> ncols:int -> estimate:float -> buckets:int -> float
(** Unsealing the covered buckets (at least one — overlap is
    bucket-granular) plus fetching the estimated matching rows. *)

val loop_join :
  outer_cost:float -> outer_out:float -> inner_rows:int -> inner_ncols:int -> float
(** Materialize the inner once, hash-probe per outer row. *)

val index_loop_join :
  inputs ->
  outer_cost:float ->
  outer_out:float ->
  inner_rows:int ->
  inner_ncols:int ->
  paged:bool ->
  float
(** One exact-index descent on the inner table per outer row. *)
