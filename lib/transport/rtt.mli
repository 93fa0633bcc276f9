(** Adaptive round-trip-time estimation (Jacobson/Karels style).

    The ISIS failure detector "adaptively adjusts the timeout interval
    to avoid treating an overloaded site as having failed" (paper
    Sec 3.7).  We keep an EWMA of the RTT and its mean deviation and
    derive both the retransmission timeout and the failure-suspicion
    timeout from them, so a slow-but-alive site pushes its own timeout
    up instead of getting declared dead. *)

type t

(** The retransmission-timeout floor (µs).  Other timers that must stay
    {e under} the RTO (the transport's delayed ack) are derived from
    this constant rather than hardcoded next to it. *)
val default_min_timeout_us : int

(** [create ()] seeds the estimator with a 50 ms guess. *)
val create : unit -> t

(** [observe t rtt_us] folds in a measurement. *)
val observe : t -> int -> unit

(** [srtt_us t] is the smoothed estimate. *)
val srtt_us : t -> int

(** [timeout_us t] is [srtt + 4*rttvar], floored at
    {!default_min_timeout_us} — the per-probe suspicion/retransmission
    timeout. *)
val timeout_us : t -> int

(** [backoff t] doubles the timeout transiently (exponential backoff for
    retransmissions); [observe] resets the backoff. *)
val backoff : t -> unit

val samples : t -> int
