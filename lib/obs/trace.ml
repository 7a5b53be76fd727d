(* Span-based tracing with pluggable sinks.

   A span is opened around a unit of work ([with_span]); when the global
   switch is on, its wall-clock duration is measured once and delivered to
   the configured sink — and, optionally, to a latency histogram — so the
   cost is one [gettimeofday] pair per span.  When the switch is off the
   span body runs directly: no clock read, no allocation.

   Sinks:
     Null    count the span (trace.spans) but record nothing
     Ring    keep the last [ring_capacity] events in memory (tests, CLI)
     Stderr  emit one JSON object per line on stderr (offline analysis)

   The ring is mutex-protected rather than lock-free: spans live on cold
   paths (oplog appends, replays, CLI workloads), so simplicity wins over
   the last nanosecond, and the benchmark suite runs with the switch off
   anyway. *)

type event = {
  span : string;
  attrs : (string * string) list;
  start : float;
  duration : float;
}

type sink = Null | Ring | Stderr

let sink_state = Atomic.make Null
let set_sink s = Atomic.set sink_state s
let sink () = Atomic.get sink_state

let ring_capacity = 1024
let ring : event option array = Array.make ring_capacity None
let ring_mutex = Mutex.create ()
let ring_emitted = ref 0

let clear_ring () =
  Mutex.protect ring_mutex (fun () ->
      Array.fill ring 0 ring_capacity None;
      ring_emitted := 0)

let ring_events () =
  Mutex.protect ring_mutex (fun () ->
      let total = !ring_emitted in
      let n = min total ring_capacity in
      let first = if total <= ring_capacity then 0 else total mod ring_capacity in
      List.init n (fun i ->
          match ring.((first + i) mod ring_capacity) with
          | Some e -> e
          | None -> assert false))

let spans_total = Metrics.counter "trace.spans"

let json_of_event e =
  let attrs =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k) (Metrics.json_escape v))
         e.attrs)
  in
  Printf.sprintf "{\"span\":\"%s\",\"start\":%.6f,\"duration\":%.9f,\"attrs\":{%s}}"
    (Metrics.json_escape e.span) e.start e.duration attrs

let emit e =
  Metrics.incr spans_total;
  match sink () with
  | Null -> ()
  | Ring ->
      Mutex.protect ring_mutex (fun () ->
          ring.(!ring_emitted mod ring_capacity) <- Some e;
          incr ring_emitted)
  | Stderr ->
      output_string stderr (json_of_event e);
      output_char stderr '\n';
      flush stderr

let close ?hist span attrs t0 =
  let duration = Unix.gettimeofday () -. t0 in
  (match hist with Some h -> Metrics.observe h duration | None -> ());
  emit { span; attrs; start = t0; duration }

let with_span ?(attrs = []) ?hist span f =
  if not (Obs.on ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () = close ?hist span attrs t0 in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let open_span () = if Obs.on () then Unix.gettimeofday () else 0.

(* a span opened while the switch was off has no start: drop it *)
let close_span ?(attrs = []) ?hist span ~start =
  if Obs.on () && start > 0. then close ?hist span attrs start
