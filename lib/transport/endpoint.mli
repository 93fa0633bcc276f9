(** Reliable FIFO inter-site transport.

    One endpoint per site.  {!send} delivers an abstract payload to the
    destination site exactly once and in sender order, over the lossy
    packet network: messages larger than a packet are fragmented
    (4 KB packets, as in the paper), sequenced per destination,
    acknowledged cumulatively, and retransmitted (go-back-N) on an
    adaptive timeout.  Intra-site sends bypass sequencing and cost one
    10 µs hop.

    The payload stays an OCaml value — only its {e declared size}
    travels through the byte-accounted network — so protocol layers
    avoid a gratuitous serialization step while the simulation still
    charges honest byte counts (application payloads are
    [Vsync_msg.Message.t] values whose size is their real encoded
    length).

    {2 Wire efficiency: coalescing and piggybacked acks}

    Frames are not sent one per packet: each destination has a staging
    queue flushed by a zero-delay engine callback, so every frame
    generated by one runtime event for the same destination (a
    multicast fan-out, an ack plus a retransmission, …) is packed into
    shared network packets up to the network's [max_packet_bytes].  The
    receiving endpoint processes a packet's frames in order and hands
    {e all} payloads it completed to the receiver in one batch, letting
    the layer above charge its per-interrupt cost once per packet.

    Acks are cumulative and piggybacked: every outgoing data frame
    carries the sender's current cumulative ack for its inbound channel
    from that destination, and the dedicated [Ack] frame is sent by a
    short delayed-ack timer (8 ms, 4/5 of the minimum retransmission
    timeout {!Rtt.default_min_timeout_us}) only when no reverse traffic
    carried it first.

    {2 No transport flow control}

    The endpoint holds no send budget: {!send} launches at once, and
    the unacked window is bounded only by what the layer above
    originates.  That layer's admission control paces every primitive
    the same way: a group admits a multicast only while the sends it
    accepted but has not yet handed on (send CPU queue plus ABCAST
    window queue) stay under two origination windows.  Senders that go
    through admission therefore keep the transport window bounded under
    a CBCAST flood as under an ABCAST one.

    {2 Retransmission exhaustion}

    Go-back-N cannot drop one message and keep sending later ones: the
    receiver would wait forever on the sequence gap, silently breaking
    FIFO.  When the oldest unacked message exhausts [max_retransmits]
    (16 resends) the endpoint instead fails the {e whole channel}:
    outbound state is discarded, the failure handler runs for the
    destination (so the membership layer can turn the wedge into a
    clean failure event), and the next send to that site opens a fresh
    FIFO stream under a new {e channel generation}.  Data and ack
    frames carry the generation; a receiver that sees a newer
    generation discards undelivered leftovers of the old stream and
    resequences from zero, and stale generation frames are ignored.
    Exactly-once in-order delivery thus holds {e within} a generation,
    and generation turnover is always surfaced as a failure event,
    never silent loss.

    {2 Incarnations}

    Every endpoint has an {e epoch}, bumped by {!restart}.  Frames carry
    the sender's epoch; a receiver that sees a newer epoch from a peer
    discards all channel state for the old incarnation, staged frames
    included (its undelivered traffic is gone for good — the membership
    layer turns that into a clean failure/rejoin event).  Frames from an
    older epoch are dropped.

    {2 Failure detection}

    The endpoint pings {!monitor}ed sites every [ping_interval_us]
    (500 ms).  Ping timeouts use the adaptive {!Rtt} estimator; after
    [suspect_after] (4) consecutive losses the site is declared failed
    and the failure handler runs.  Detection is {e local suspicion} —
    turning suspicions into a system-wide consistent failure event is
    the membership layer's job.  These figures, the retransmission
    budget and the 24-byte frame header are constants: the transport
    takes no configuration. *)

type site = int

type 'p t

(** A fabric owns the per-site endpoint registry for one payload type;
    all endpoints that talk to each other share a fabric.  It is built
    over an execution backend ({!Vsync_backend.Backend}) — the
    deterministic simulator or the wall-clock driver — and the endpoint
    code cannot tell which. *)
type 'p fabric

val fabric : Vsync_backend.Backend.t -> 'p fabric

(** [create fabric ~site ~size] attaches an endpoint to [site].
    [size] gives the wire size of a payload in bytes.
    @raise Invalid_argument if the site already has an endpoint. *)
val create : 'p fabric -> site:site -> size:('p -> int) -> 'p t

val site : _ t -> site
val epoch : _ t -> int
val alive : _ t -> bool
val backend : 'p t -> Vsync_backend.Backend.t

(** [set_tracer t tr] attaches a typed-event tracer: packets sent and
    received, retransmission rounds, RTO firings, dedicated acks and
    channel failures emit [Transport]-class events.  Free when the
    tracer is disabled. *)
val set_tracer : _ t -> Vsync_obs.Tracer.t -> unit

(** [set_receiver t f] installs the delivery upcall [f ~src payloads].
    [payloads] are the messages completed by one arriving network packet
    (or one intra-site hop), oldest first — a coalesced packet can
    complete several.  Must be set before any traffic arrives. *)
val set_receiver : 'p t -> (src:site -> 'p list -> unit) -> unit

(** [send t ~dst p] puts [p] on the wire at once for reliable FIFO
    delivery at [dst]; the transport never holds a send back.  Sends
    from a crashed endpoint are silently dropped (a dead process sends
    nothing).  Pacing is the layer above's job (see "No transport flow
    control" above). *)
val send : 'p t -> dst:site -> 'p -> unit

(** {1 Failure detection} *)

(** [monitor t ~site] subscribes to failure detection of [site]; the
    first of these counted subscriptions starts probing.  No-op when
    crashed or for the endpoint's own site. *)
val monitor : _ t -> site:site -> unit

(** [unmonitor t ~site] drops one subscription; dropping the last
    stops probing and clears suspicion state. *)
val unmonitor : _ t -> site:site -> unit

(** [set_failure_handler t f] runs [f site] once per detected failure
    of a monitored site.  Probing continues after the declaration: a
    suspicion is revocable (see {!set_recovery_handler}) until the
    caller decides the site is really gone and {!unmonitor}s it. *)
val set_failure_handler : _ t -> (site -> unit) -> unit

(** [set_recovery_handler t f] runs [f site] when a probe of a site
    previously reported through the failure handler succeeds again —
    the site was unreachable (loss window, partition), not dead.  The
    membership layer uses this to retract the suspicion; without the
    retraction a stale suspicion of a live member would be re-proposed
    against every new view forever. *)
val set_recovery_handler : _ t -> (site -> unit) -> unit

(** [set_restart_handler t f] runs [f site] when a frame reveals that
    [site] restarted under a new epoch.  A quick crash-and-revive can
    beat the ping-based detector, leaving peers holding state about an
    incarnation that no longer exists; this hook lets the membership
    layer treat the old incarnation as failed. *)
val set_restart_handler : _ t -> (site -> unit) -> unit

(** [rtt_us t ~site] is the current smoothed RTT estimate to [site], if
    any probe has completed. *)
val rtt_us : _ t -> site:site -> int option

(** [out_rtt_stats t ~dst] is [(samples, srtt_us)] of the outbound data
    channel's RTT estimator — the one trained by acks under Karn's
    rule — if a channel to [dst] is open.  Exposed for tests and
    diagnostics. *)
val out_rtt_stats : _ t -> dst:site -> (int * int) option

(** {1 Lifecycle} *)

(** [crash t] silences the endpoint: no more sends, receives, probes or
    retransmissions.  In-flight state and monitor subscriptions are
    dropped. *)
val crash : _ t -> unit

(** [restart t] revives a crashed endpoint under a new epoch with empty
    channel state. *)
val restart : _ t -> unit

(** {1 Accounting} *)

(** [frames_sent t] counts data frames put on the wire (including
    retransmissions); [retransmits t] counts only the latter. *)
val frames_sent : _ t -> int

val retransmits : _ t -> int

(** [acks_sent t] counts dedicated ack frames put on the wire
    (piggybacked acks ride data frames and are not counted). *)
val acks_sent : _ t -> int

(** [packets_sent t] counts network packets — one packet can carry
    several coalesced frames. *)
val packets_sent : _ t -> int

(** [channel_failures t] counts outbound channels abandoned after
    retransmission exhaustion (each one also invoked the failure
    handler). *)
val channel_failures : _ t -> int

(** [inflight t] — messages sitting in outbound windows awaiting a
    cumulative ack; [recv_pending t] — receive-side reassembly partials
    above the delivery watermark.  Both are bounded by window sizes,
    not traffic history (gauge material for the soak bench). *)
val inflight : _ t -> int

val recv_pending : _ t -> int

(** [sendq_depth t] — frames staged in coalescing queues (flushed within
    the same engine instant, so zero whenever the engine is quiescent).
    A quiescence gauge: the oracle asserts it drains to zero. *)
val sendq_depth : _ t -> int

(** {1 Test hooks} *)

(** [inject_reassembly_corruption t ~src] forges a complete payload-less
    reassembly partial on the inbound channel from [src] and runs the
    delivery drain over it.  The corrupt state is not reachable through
    any wire behaviour (fragment 0 always carries the payload); this
    exists solely so tests can pin that the drain fails the channel —
    teardown, failure handler, obs event — instead of aborting the
    process. *)
val inject_reassembly_corruption : _ t -> src:site -> unit
