module Metrics = Secdb_obs.Metrics
module Obs = Secdb_obs.Obs

(* The unit of cost is one cell decrypt.  Everything else is priced
   relative to that: decoding a B+-tree node touches a handful of sealed
   entries, unsealing one bucket entry is about one cell, and paged
   structures pay extra per node in proportion to how often their caches
   miss.  The constants are deliberately coarse — the model only has to
   order candidate plans correctly, and the [--check] gate guarantees a
   mis-ordering costs latency, never correctness. *)

let c_cell = 1.0
let c_node = 2.0
let c_bucket_entry = 1.0
let c_hash_probe = 0.1

type inputs = {
  pager_hit_rate : float;  (** fraction of pager lookups served from cache, 0..1 *)
  pbt_hit_rate : float;  (** fraction of paged-B⁺-tree node reads served from cache *)
}

let static_inputs = { pager_hit_rate = 1.0; pbt_hit_rate = 1.0 }

let counter_rate hits misses =
  let h = Metrics.value (Metrics.counter hits) and m = Metrics.value (Metrics.counter misses) in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)

let live () =
  if not (Obs.on ()) then static_inputs
  else
    {
      pager_hit_rate = counter_rate "pager.cache_hits" "pager.cache_misses";
      pbt_hit_rate = counter_rate "pbt.cache_hits" "pbt.node_loads";
    }

(* --- access paths --------------------------------------------------------- *)

let depth rows = Float.log2 (float_of_int (max 2 rows))

let seq_scan ~rows ~ncols = float_of_int rows *. float_of_int ncols *. c_cell

let index_probe inputs ~rows ~ncols ~estimate ~paged =
  let node =
    c_node
    *. (if paged then 1.0 +. (3.0 *. (1.0 -. inputs.pbt_hit_rate)) +. (2.0 *. (1.0 -. inputs.pager_hit_rate))
        else 1.0)
  in
  (depth rows *. node) +. (estimate *. float_of_int rows *. float_of_int ncols *. c_cell)

let bucket_scan ~rows ~ncols ~estimate ~buckets =
  (* overlap is bucket-granular: even a pinpoint range unseals at least
     one whole bucket's entries before the exact filter *)
  let covered = Float.min 1.0 (estimate +. (1.0 /. float_of_int (max 1 buckets))) in
  (covered *. float_of_int rows *. c_bucket_entry)
  +. (estimate *. float_of_int rows *. float_of_int ncols *. c_cell)

(* --- joins ----------------------------------------------------------------
   [outer_cost] is the outer access path's own cost; [outer_out] the
   estimated rows it emits. *)

let loop_join ~outer_cost ~outer_out ~inner_rows ~inner_ncols =
  outer_cost +. seq_scan ~rows:inner_rows ~ncols:inner_ncols +. (c_hash_probe *. outer_out)

let index_loop_join inputs ~outer_cost ~outer_out ~inner_rows ~inner_ncols ~paged =
  (* per-probe matches: assume mild duplication rather than uniqueness so
     skew does not make the index loop look free *)
  let matches = Float.max 1.0 (0.01 *. float_of_int inner_rows) in
  let probe =
    index_probe inputs ~rows:inner_rows ~ncols:inner_ncols ~estimate:0.0 ~paged
    +. (matches *. float_of_int inner_ncols *. c_cell)
  in
  outer_cost +. (outer_out *. probe)
