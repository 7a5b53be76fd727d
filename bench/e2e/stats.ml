(* Pure statistics for the end-to-end benchmark: percentiles, the
   reportable tail, medians of rounds, span self time and the stage
   stitch.  Kept free of I/O so the test next to it runs in microseconds. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p] percent of the samples at or below it. *)
let rank ~n p =
  (* the epsilon keeps [p n / 100] exact when it is an integer in decimal
     but not in binary (99.9% of 10,000) *)
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~n p - 1)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The highest percentile a sample of [n] supports: at least ten samples
   must lie beyond its rank, so the value is not set by one or two
   outliers.  [None] below twenty samples (not even the median qualifies
   with ten samples on each side). *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank ~n p >= 10) [ 99.99; 99.9; 99.; 90.; 50. ]

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over rounds of one per-round statistic: each round reduces its
   own samples first, so a round with more samples does not outvote the
   others and host drift during one round moves one value only. *)
let median_of_rounds f rounds = median (List.map f rounds)

(* Integer median, for nanosecond stage times that must add up exactly. *)
let median_int xs =
  match xs with
  | [] -> 0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) + a.(n / 2)) / 2

(* --- spans ---------------------------------------------------------------- *)

type span = { id : int; parent : int; name : string; req : int; start_ns : int; stop_ns : int }
(** [parent] is [-1] for a request's root span. *)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Every span with its self time: its duration minus the part of its
   interval that its direct children cover (overlapping children count
   once). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun c -> Hashtbl.add children c.parent (c.start_ns, c.stop_ns)) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

(* --- the stitch ----------------------------------------------------------- *)

(* The end-to-end serial latency split into the measured stages plus a
   residual.  Everything is integer nanoseconds, so [stage_sum + residual
   = serial] holds exactly, not to rounding. *)
type stitch = { stage_sum_ns : int; residual_ns : int }

let stitch ~serial_ns stages_ns =
  let stage_sum_ns = List.fold_left ( + ) 0 stages_ns in
  { stage_sum_ns; residual_ns = serial_ns - stage_sum_ns }

(* Nanoseconds as microseconds, every digit kept. *)
let us_of_ns ns = float_of_int ns /. 1e3
