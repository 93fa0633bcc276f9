(** Network model.

    Reproduces the paper's testbed at the packet level: SUN-3
    workstations on a 10 Mbit shared Ethernet, with the link constants
    the paper reports in Figure 3 — 10 µs to traverse a link within a
    site, 16 ms to send an inter-site packet — and fragmentation of
    large messages into 4 KB packets (the cause of Figure 2's latency
    knee between 1 KB and 10 KB).

    Failure model (paper Sec 2.1): packets can be lost; sites can crash
    (everything in flight to/from them is dropped); the network can
    partition, in which case cross-partition packets are silently
    dropped until healed.  Several splits may be in force at once
    (overlapping partitions), and a split may be one-way (an asymmetric
    partition: only one direction is blocked).  The paper assumes
    partitions never happen; the runtime layered above survives them
    with a primary-partition membership rule instead of stalling.

    Beyond the paper's failure model, every {e directed} inter-site link
    can be independently degraded at runtime (the nemesis subsystem
    drives these): asymmetric extra loss, added latency and jitter,
    packet duplication, reordering detours, bursty loss following a
    two-state Gilbert–Elliott chain, and bandwidth degradation.  All
    fault randomness flows through the engine-derived seeded RNG, so a
    faulty run replays exactly from its seed. *)

type site = int

type config = {
  intra_site_us : int;      (** one-way latency within a site (paper: 10 µs). *)
  inter_site_us : int;      (** one-way inter-site packet latency (paper: 16 ms). *)
  bandwidth_bytes_per_sec : int;
      (** shared-medium capacity (paper: 10 Mbit ≈ 1.25 MB/s). *)
  per_packet_overhead_bytes : int;
      (** header bytes added to every packet on the wire. *)
  max_packet_bytes : int;   (** fragmentation threshold (paper: 4 KB). *)
  loss_probability : float; (** per-packet drop probability. *)
}

(** The paper's constants. *)
val default_config : config

(** Two-state Gilbert–Elliott bursty-loss model: per packet offered to
    the link the chain moves good→bad with probability [p_enter] and
    bad→good with probability [p_exit]; packets then drop with
    [loss_good] or [loss_bad] according to the current state. *)
type burst = {
  p_enter : float;
  p_exit : float;
  loss_good : float;
  loss_bad : float;
}

type t

(** [create engine config ~sites] builds a network of [sites] sites, all
    initially up. *)
val create : Engine.t -> config -> sites:int -> t

val config : t -> config
val n_sites : t -> int
val engine : t -> Engine.t

(** [set_tracer t tr] attaches a typed-event tracer: fault decisions
    (drops with their reason, duplications, reorder detours) emit
    [Net]-class events.  Free when the tracer is disabled. *)
val set_tracer : t -> Vsync_obs.Tracer.t -> unit

val tracer : t -> Vsync_obs.Tracer.t option

(** [send t ~src ~dst ~bytes deliver] transmits one {e packet} of
    [bytes] payload bytes from [src] to [dst] and calls [deliver] at the
    receiver-side arrival time — unless the packet is lost, a site is
    down, or the two sites are partitioned, in which case [deliver] is
    never called.  Fragmentation is the sender's job ({!fragments}
    helps); [bytes] beyond [max_packet_bytes] raises. *)
val send : t -> src:site -> dst:site -> bytes:int -> (unit -> unit) -> unit

(** [fragments t ~bytes] is the list of packet payload sizes a message
    of [bytes] bytes fragments into (always non-empty). *)
val fragments : t -> bytes:int -> int list

(** {1 Failures} *)

val site_up : t -> site -> bool

(** [crash_site t s] takes the site down: packets to or from it are
    dropped from now on (packets already in flight towards it are also
    discarded at arrival). *)
val crash_site : t -> site -> unit

(** [restart_site t s] brings the site back (a recovered site is a new
    incarnation; higher layers handle reintegration). *)
val restart_site : t -> site -> unit

(** [set_loss t p] changes the packet-loss probability mid-run (tests
    form groups losslessly, then turn loss on for the traffic under
    study). *)
val set_loss : t -> float -> unit

(** [partition t left right] adds a two-way split dropping packets
    between the two groups (a site absent from both lists communicates
    with everyone).  Splits accumulate: several may be active at once. *)
val partition : t -> site list -> site list -> unit

(** [partition_oneway t left right] adds an asymmetric split: packets
    from [left] to [right] are dropped, the reverse direction flows. *)
val partition_oneway : t -> site list -> site list -> unit

(** [heal t] removes every active split. *)
val heal : t -> unit

(** [heal_split t left right] removes the one split with exactly these
    site sets (either orientation), leaving other splits in force. *)
val heal_split : t -> site list -> site list -> unit

(** [partitioned t a b]: is a packet from [a] to [b] currently blocked
    by an active split?  Directional, to honour one-way splits. *)
val partitioned : t -> site -> site -> bool

(** {1 Per-link faults}

    Each setter degrades the {e directed} link [src → dst] only (the
    reverse direction is a separate link), composing with the global
    loss probability and with any partition.  Intra-site hops cannot be
    degraded ([src = dst] raises).  Probabilities outside [\[0,1\]]
    raise. *)

(** [set_link_loss t ~src ~dst p] adds asymmetric per-packet loss on
    the link (composes with the global probability:
    [1 - (1-global)(1-p)(1-burst)]). *)
val set_link_loss : t -> src:site -> dst:site -> float -> unit

(** [set_link_delay t ~src ~dst ~extra_us ~jitter_us] adds [extra_us]
    plus a uniform draw from [\[0, jitter_us\]] to every packet's
    propagation time.  Jitter alone can reorder packets. *)
val set_link_delay : t -> src:site -> dst:site -> extra_us:int -> jitter_us:int -> unit

(** [set_link_dup t ~src ~dst p] duplicates each surviving packet with
    probability [p]; the echo arrives 1–2000 µs after the original. *)
val set_link_dup : t -> src:site -> dst:site -> float -> unit

(** [set_link_reorder t ~src ~dst ~span_us p] sends each packet on a
    detour with probability [p], delaying it by a uniform draw from
    [\[1, span_us\]] (default 30 ms) so it arrives behind later
    packets. *)
val set_link_reorder : t -> src:site -> dst:site -> ?span_us:int -> float -> unit

(** [set_link_bandwidth_factor t ~src ~dst f] multiplies the sender's
    per-packet serialization time by [f] for packets on this link
    ([f > 1] degrades; [f] must be positive). *)
val set_link_bandwidth_factor : t -> src:site -> dst:site -> float -> unit

(** [set_link_burst t ~src ~dst b] installs a Gilbert–Elliott bursty
    loss chain on the link, starting in the good state. *)
val set_link_burst : t -> src:site -> dst:site -> burst -> unit

(** [clear_link t ~src ~dst] restores the link to pristine. *)
val clear_link : t -> src:site -> dst:site -> unit

(** [clear_links t] restores every link (global loss and any partition
    are untouched). *)
val clear_links : t -> unit

(** {1 Accounting} *)

(** [packets_sent t] / [bytes_sent t] / [packets_lost t] count totals
    since creation (inter-site only; intra-site hops are free, as in the
    paper's accounting). *)
val packets_sent : t -> int

val bytes_sent : t -> int
val packets_lost : t -> int

(** [packets_duplicated t] / [packets_reordered t] count fault
    injections performed by the per-link adversary. *)
val packets_duplicated : t -> int

val packets_reordered : t -> int

(** [backend t] is the network's execution-backend view
    ({!Vsync_backend.Backend}): virtual-clock time and timers from the
    underlying engine, frame I/O through {!send} (so every fault model
    above applies), the engine root RNG.  The transport and runtime
    layers consume only this. *)
val backend : t -> Vsync_backend.Backend.t
