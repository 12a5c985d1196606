(** Open-loop load generation.

    An open loop sends each request when it falls due, whether or not
    earlier ones have been answered, so a stall in the system under test
    shows up as queueing and latency instead of silently lowering the
    offered load.  Latency is measured from each request's due time; the
    generator records how late it actually sent each request, so its own
    stalls are visible too. *)

type clock = {
  now : unit -> float;  (** seconds *)
  wait : float -> unit;
      (** block for at most this many seconds; may return early (e.g. when
          the system under test signals a completion) *)
}

val paced : Random.State.t -> rate:float -> n:int -> float array
(** Due offsets of [n] arrivals at [rate] per second, one in each
    consecutive interval of length [1 / rate], at a seeded uniform position
    within it.  Unlike Poisson arrivals these have no bursts, so the
    latency they measure is the system's, not the schedule's.
    @raise Invalid_argument unless [rate > 0] and [n >= 0]. *)

type run = {
  start : float;  (** clock reading the offsets are relative to *)
  late : float array;  (** per request: send time minus due time, seconds *)
}

val run : clock -> due:float array -> send:(int -> unit) -> poll:(unit -> unit) -> run
(** Send request [i] (by calling [send i]) as soon as offset [due.(i)] has
    passed, in order, calling [poll] before every check of the clock so
    completions are handled while the generator waits.  [due] must be
    ascending.  Returns when every request has been sent. *)
