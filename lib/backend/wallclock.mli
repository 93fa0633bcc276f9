(** Wall-clock execution backend.

    The same microsecond timeline the simulator fabricates, read off the
    machine's real clock instead: {!Backend.now} is elapsed real time
    since {!create}, timers actually wait, and frame I/O is in-process
    delivery after a small configurable real latency.  A timer fires on
    its microsecond: the driver asks the OS to sleep for all of a wait
    but its last 200 µs, which it spends polling the clock, because the
    OS wakes a sleeper tens of µs late.  The core is busy for that
    stretch.  Protocol behaviour — retransmission
    timeouts, delayed acks, failure-detector probes — runs against real
    asynchrony: scheduling jitter, GC pauses and OS preemption replace
    the simulator's fabricated delays, so nothing is deterministic and
    the oracle may only be asked order-relaxed questions of such runs.

    A run under a backlog (events whose deadline has already passed)
    never sleeps, so closed-loop workloads execute at hardware speed —
    this is what the benches' wall-clock mode measures.

    All of a wall-clock world's events run on the driving domain; the
    backend is single-domain like the simulator, and parallelism comes
    from running whole worlds on separate domains
    ({!Vsync_parallel.Pool}). *)

type config = {
  wc_intra_site_us : int;  (** latency of a local hop (default 1). *)
  wc_inter_site_us : int;  (** base latency between sites (default 5). *)
  wc_jitter_us : int;
      (** uniform extra latency drawn per packet (default 2); real
          scheduling noise dwarfs this, it exists so two packets never
          tie by construction. *)
  wc_max_packet_bytes : int;  (** fragmentation threshold (default 4096). *)
}

val default_config : config

type t

(** [create ?config ?seed ~sites ()] starts the clock (elapsed time 0 is
    the moment of this call). *)
val create : ?config:config -> ?seed:int64 -> sites:int -> unit -> t

(** The {!Backend.t} view consumed by the transport fabric and the
    runtimes. *)
val backend : t -> Backend.t

(** Elapsed real microseconds since {!create}. *)
val now : t -> int

(** [run_while t ~deadline pred] drives the event loop until [pred ()]
    holds, the clock passes [deadline] (elapsed µs) or {!stop} is
    called, and returns whether [pred ()] held.  Due events fire first,
    overdue ones immediately and each other one on its microsecond;
    [pred] is asked whenever nothing is due, before the loop waits for
    the next event or the deadline.  Every pass checks the deadline: an
    event due after it is left for a later call, so a backlog of events
    that keep rescheduling themselves ends once the clock passes it. *)
val run_while : t -> deadline:int -> (unit -> bool) -> bool

(** [run_until t until] is {!run_while} with a predicate that never
    holds: it fires every event due up to [until], sleeps to [until]
    and returns the number of events fired, unless {!stop} ends it
    first. *)
val run_until : t -> int -> int

(** [stop t] makes the innermost {!run_while} or {!run_until} return
    after the event currently executing; callable from inside an
    event.  The next call of either runs again. *)
val stop : t -> unit

(** Events executed so far. *)
val events_fired : t -> int

(** Scheduled, not yet fired or cancelled. *)
val pending : t -> int
