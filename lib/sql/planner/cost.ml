(* The unit of cost is one cell decrypt.  Everything else is priced
   relative to that: decoding a B+-tree node touches a handful of sealed
   entries and unsealing one bucket entry is about one cell.  The constants are deliberately coarse — the model only has to
   order candidate plans correctly, and the [--check] gate guarantees a
   mis-ordering costs latency, never correctness. *)

let c_cell = 1.0
let c_node = 2.0
let c_bucket_entry = 1.0
let c_hash_probe = 0.1

(* --- access paths --------------------------------------------------------- *)

let depth rows = Float.log2 (float_of_int (max 2 rows))

let seq_scan ~rows ~ncols = float_of_int rows *. float_of_int ncols *. c_cell

let index_probe ~rows ~ncols ~estimate =
  (depth rows *. c_node) +. (estimate *. float_of_int rows *. float_of_int ncols *. c_cell)

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

let index_loop_join ~outer_cost ~outer_out ~inner_rows ~inner_ncols =
  (* per-probe matches: assume mild duplication rather than uniqueness so
     skew does not make the index loop look free *)
  let matches = Float.max 1.0 (0.01 *. float_of_int inner_rows) in
  let probe =
    index_probe ~rows:inner_rows ~ncols:inner_ncols ~estimate:0.0
    +. (matches *. float_of_int inner_ncols *. c_cell)
  in
  outer_cost +. (outer_out *. probe)
