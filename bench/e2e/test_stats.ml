(* The benchmark's statistics, checked on hand-computed cases. *)

let check name ok = if not ok then failwith ("e2e stats: " ^ name)

let () =
  (* nearest rank: p50 of 1..10 is 5, p90 is 9, p99 and p100 are 10 *)
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check "p50" (Stats.percentile a 50. = 5.);
  check "p90" (Stats.percentile a 90. = 9.);
  check "p99" (Stats.percentile a 99. = 10.);
  check "p0 is the minimum" (Stats.percentile a 0. = 1.);
  check "one sample" (Stats.percentile [| 7. |] 99. = 7.);
  check "sorted" (Stats.sorted [ 3.; 1.; 2. ] = [| 1.; 2.; 3. |]);
  (* at least ten samples beyond the reported rank *)
  check "19 samples support no tail" (Stats.tail_percentile 19 = None);
  check "20 samples support the median" (Stats.tail_percentile 20 = Some 50.);
  check "100 samples support p90" (Stats.tail_percentile 100 = Some 90.);
  check "1,440 samples support p99" (Stats.tail_percentile 1_440 = Some 99.);
  check "9,999 samples stop at p99" (Stats.tail_percentile 9_999 = Some 99.);
  check "10,000 samples support p99.9" (Stats.tail_percentile 10_000 = Some 99.9);
  (* medians, and the median of per-round statistics *)
  check "odd median" (Stats.median [ 5.; 1.; 3. ] = 3.);
  check "even median" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "integer median" (Stats.median_int [ 40; 10; 30; 20 ] = 25 && Stats.median_int [] = 0);
  let rounds = [ [ 1.; 2.; 3. ]; [ 10.; 20.; 30.; 40.; 50. ]; [ 5. ] ] in
  check "median of rounds"
    (Stats.median_of_rounds (fun r -> Stats.percentile (Stats.sorted r) 50.) rounds = 5.);
  (* self time: the parent minus the union of its children, clipped *)
  let sp id parent start_ns stop_ns =
    { Stats.id; parent; name = "s"; req = 0; start_ns; stop_ns }
  in
  let root = sp 0 (-1) 0 100 in
  let spans =
    (* children overlap and one overruns its parent; the grandchild is
       covered by its own parent and must not count against the root *)
    [ root; sp 1 0 10 30; sp 2 0 20 40; sp 3 0 90 120; sp 4 1 12 14 ]
  in
  let self id = List.find_map (fun ((s : Stats.span), t) -> if s.id = id then Some t else None) in
  let selfs = Stats.self_times spans in
  check "self time" (self 0 selfs = Some (100 - 30 - 10));
  check "leaf self time" (self 2 selfs = Some 20);
  check "child self time" (self 1 selfs = Some 18);
  (* the residual closes the stitch exactly *)
  let s = Stats.stitch ~serial_ns:100_003 [ 41_001; 7; 33_333 ] in
  check "stage sum" (s.stage_sum_ns = 74_341);
  check "stitch is exact" (s.stage_sum_ns + s.residual_ns = 100_003);
  let neg = Stats.stitch ~serial_ns:5 [ 4; 4 ] in
  check "negative residual" (neg.residual_ns = -3 && neg.stage_sum_ns + neg.residual_ns = 5);
  check "us keeps every digit" (Stats.us_of_ns 12_345 = 12.345)
