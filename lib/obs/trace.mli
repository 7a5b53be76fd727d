(** Span-based tracing with pluggable sinks.

    While {!Obs.on} is false, {!with_span} runs its body directly: no
    clock read, no allocation.  When on, each completed span is counted
    (counter [trace.spans]) and delivered to the configured sink. *)

type event = {
  span : string;
  attrs : (string * string) list;
  start : float;  (** [Unix.gettimeofday] at span open *)
  duration : float;  (** seconds *)
}

type sink =
  | Null  (** count spans, record nothing *)
  | Ring  (** keep the last {!ring_capacity} events in memory *)
  | Stderr  (** one JSON object per line on stderr *)

val set_sink : sink -> unit
val sink : unit -> sink

val ring_capacity : int
val ring_events : unit -> event list
(** Ring contents in emission order (oldest first). *)

val clear_ring : unit -> unit

val with_span :
  ?attrs:(string * string) list -> ?hist:Metrics.histogram -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording one event named [name] around
    it.  The span is recorded (and [?hist] observed with the duration)
    whether [f] returns or raises. *)

val open_span : unit -> float
(** The start of a span whose end happens elsewhere (another thread, a
    later call): [Unix.gettimeofday ()] while {!Obs.on}, else [0.] with no
    clock read. *)

val close_span :
  ?attrs:(string * string) list -> ?hist:Metrics.histogram -> string -> start:float -> unit
(** Record one event named [name] that opened at [start] (from
    {!open_span}) and closes now, exactly as {!with_span} would have.  A
    no-op while the switch is off or when [start] was taken while it was
    off. *)

val json_of_event : event -> string
