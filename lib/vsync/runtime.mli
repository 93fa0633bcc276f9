(** The per-site {e protocols process} (paper Sec 4, Figure 1).

    One runtime per site.  It implements the ABCAST / CBCAST / GBCAST
    primitives, maintains process-group membership views (with the
    flush-based view-change protocol that makes membership changes,
    failures and GBCASTs appear instantaneous and identically ordered
    everywhere), performs all inter-site communication through the
    reliable transport, manages the group-name directory, routes
    replies, and hosts the site's client processes.

    Client processes are created with {!spawn_proc} and interact with
    the runtime through direct calls — the simulated equivalent of the
    local IPC between an ISIS client and its site's protocols process.
    Blocking operations ({!bcast} with replies, {!pg_join},
    {!pg_lookup}, {!flush}, {!sleep}) must run inside one of the
    process's lightweight tasks ({!spawn_task}).

    {2 Virtual synchrony guarantees}

    - A multicast is delivered to the membership current when it was
      sent: the view-change flush completes or consistently discards
      every in-flight multicast before a new view is installed.
    - All members observe the same sequence of views, and the same
      ordering of view changes relative to message deliveries.
    - CBCASTs that are potentially causally related (same group,
      member senders) are delivered everywhere in causal order; same
      sender implies same order (FIFO) for all senders including
      non-member clients.
    - ABCASTs are delivered in the same total order everywhere.
    - GBCASTs (and membership events, which ride the same protocol)
      are ordered consistently w.r.t. {e every} other event.
    - Failures are clean: once a failure is observed through a view
      change, no message from the failed process will be delivered. *)

open Types
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message

type t
type proc

type config = {
  cpu_send_us : int;
      (** CPU cost to initiate a protocol operation (calibrated so the
          ABCAST breakdown reproduces the paper's Figure 3). *)
  cpu_recv_us : int;  (** CPU cost to process one received frame. *)
  cpu_us_per_kb : int;
      (** additional CPU cost per KB handled (buffer copies). *)
  cpu_us_per_extra_packet : int;
      (** additional CPU cost per 4 KB fragment beyond the first (the
          source of Figure 2's latency knee). *)
  ab_window : int;
      (** ABCAST origination pipeline depth: how many phase-1 rounds a
          site may have outstanding per group before further ABCASTs
          queue.  Queued rounds are released in {e bursts} (once at
          least half the window is free) so that rounds launched
          together coalesce into shared packets — phase-1 fan-out,
          the members' prio replies, and the phase-2 commit fan-out
          each collapse to one packet per destination per burst.
          1 fully serializes rounds; default 16.  The window also sets
          the admission limit of {!bcast_try} / {!bcast_wait}.
          {!create} rejects a window below 1. *)
  clock_offset_us : int;
      (** this site's wall-clock skew from true simulation time
          (unknown to the site itself; the real-time tool estimates
          it). *)
}

val default_config : config

(** The transport fabric shared by all runtimes of one world.  Built
    over an execution backend ({!Vsync_backend.Backend}); the runtime
    cannot tell a simulated world from a wall-clock one. *)
type fabric

val make_fabric : Vsync_backend.Backend.t -> fabric
val fabric_backend : fabric -> Vsync_backend.Backend.t

(** [create ?config fabric ~site ~trace ()] boots the site's protocols
    process.
    @raise Invalid_argument if [config.ab_window < 1]. *)
val create :
  ?config:config -> fabric -> site:int -> trace:Vsync_sim.Trace.t -> unit -> t

val site : t -> int
val backend : t -> Vsync_backend.Backend.t
val alive : t -> bool
val trace : t -> Vsync_sim.Trace.t

(** [metrics t] is the site's unified metrics registry: the hygiene
    gauges ([runtime.pending_unstable], [runtime.pending_store],
    [runtime.dedup_residue], …), the transport wire accounting
    ([transport.inflight], [transport.retransmits], …), sampled live by
    name, and counters:
    - [runtime.cb_held], CBCAST originations held so that a run of
      queued CBCASTs into one group leaves in shared packets;
    - [runtime.stability_frames], the [Deliver_ack] and [Stable] frames
      the site sent, one per destination;
    - Table I's tallies, registered on first use: [prim.cbcast],
      [prim.abcast] and [prim.gbcast_req] (client multicasts by
      protocol), [prim.gbcast] (view changes committed here),
      [prim.reply] and [prim.null_reply] (replies sent, and joins
      granted), and [prim.local_rpc] (calls the paper serves from the
      site's protocols process: [pg_create], [pg_lookup], [pg_monitor],
      a news subscription). A [pg_lookup] miss adds one [prim.cbcast],
      a [pg_join] one [prim.cbcast], and [pg_kill] one [prim.abcast]. *)
val metrics : t -> Vsync_obs.Metrics.t

(** [cpu_busy_us t] is accumulated CPU busy time (for the load figures
    quoted in the paper's Sec 7). *)
val cpu_busy_us : t -> int

(** [transport_stats t] is the site's transport wire accounting as
    labelled counts, for the ledger: data frames, dedicated ack frames,
    network packets (one packet can carry several coalesced frames),
    retransmitted frames, and failed channels.  Everything else reads
    the same figures as the [transport.*] gauges of {!metrics}. *)
val transport_stats : t -> (string * int) list

(** [local_time_us t] is the site's local wall clock — true time plus
    its configured skew. *)
val local_time_us : t -> int

(** {1 Site lifecycle} *)

(** [crash t] kills the site: every local process dies mid-task, all
    protocol state is lost.  Remote sites find out through their
    failure detectors. *)
val crash : t -> unit

(** [restart t] revives a crashed site under a new incarnation with
    empty state and announces it to the other sites (the recovery
    manager listens for these announcements). *)
val restart : t -> unit

(** [watch_sites t f] registers [f] to run on site events observed by
    this site: [`Down s] from the failure detector (only for sites
    this runtime currently monitors), [`Up s] on a restart
    announcement. *)
val watch_sites : t -> ([ `Down of int | `Up of int ] -> unit) -> unit

(** {1 Processes} *)

val spawn_proc : t -> ?name:string -> unit -> proc
val proc_addr : proc -> Addr.proc

(** [proc_uid p] is unique across every process of every simulation in
    this OCaml program — a collision-free key for tool-level
    per-process registries. *)
val proc_uid : proc -> int
val proc_name : proc -> string
val proc_alive : proc -> bool
val runtime_of : proc -> t

(** [kill_proc p] crashes the process.  Its site detects this
    immediately (paper Sec 2.1) and initiates failure handling in every
    group [p] belonged to. *)
val kill_proc : proc -> unit

(** [spawn_task p f] starts a lightweight task of [p]. *)
val spawn_task : proc -> (unit -> unit) -> unit

(** [sleep p us] blocks the calling task for [us] microseconds. *)
val sleep : proc -> int -> unit

(** {1 Entries and filters} *)

(** [bind p entry handler] binds [handler] to [entry]; each arriving
    message starts a new task running [handler msg] (paper Sec 4.1). *)
val bind : proc -> Entry.t -> (Message.t -> unit) -> unit

(** [add_filter p f] appends a filter to [p]'s inbound chain; a message
    is discarded unless every filter accepts it (the protection tool is
    such a filter). *)
val add_filter : proc -> (Message.t -> bool) -> unit

(** {1 Process groups} *)

(** [pg_create p name] creates a group with [p] as sole member and
    registers [name] in the directory.
    @raise Invalid_argument if this site already created [name]. *)
val pg_create : proc -> string -> Addr.group_id

(** [pg_lookup p name] resolves a symbolic group name: local hit, or
    one round of queries to the other sites (blocking). *)
val pg_lookup : proc -> string -> Addr.group_id option

(** [pg_join p gid ~credentials] asks to join; blocks until the view
    change installs the new membership or the join is refused. *)
val pg_join : proc -> Addr.group_id -> credentials:Message.t -> (unit, string) result

(** [pg_leave p gid] leaves the group (blocks until effective). *)
val pg_leave : proc -> Addr.group_id -> unit

(** [pg_add_member p gid who] adds an external process to the group on
    its behalf (Table I's [pg_addmember]: one GBCAST).  [who]'s site
    learns of the membership through the commit. *)
val pg_add_member : proc -> Addr.group_id -> Addr.proc -> unit

(** [pg_kill p gid] sends a termination signal to every member through
    an ABCAST (Table I's [pg_kill]); the runtime at each site kills the
    members on delivery. *)
val pg_kill : proc -> Addr.group_id -> unit

(** [pg_monitor p gid f] runs [f view changes] at every membership
    change, in the same order at all members and consistently ordered
    w.r.t. message deliveries. *)
val pg_monitor : proc -> Addr.group_id -> (View.t -> View.change list -> unit) -> unit

(** [pg_view p gid] is this site's current view of [gid] (present when
    the site hosts a member). *)
val pg_view : proc -> Addr.group_id -> View.t option

(** [pg_rank p gid] is [p]'s rank in the current view. *)
val pg_rank : proc -> Addr.group_id -> int option

(** [pg_join_verify p gid f] installs a join validator: the group
    coordinator calls [f joiner credentials] before admitting a joiner
    (paper Sec 3.10). *)
val pg_join_verify : proc -> Addr.group_id -> (Addr.proc -> Message.t -> bool) -> unit

(** {1 Communication} *)

(** Result of a reply-collecting multicast. *)
type outcome =
  | Replies of (Addr.proc * Message.t) list
      (** collected replies, possibly fewer than requested if
          destinations failed (the paper's "error code" case is an
          empty or short list). *)
  | All_failed  (** no destination could respond. *)

(** [bcast p mode ~dest ~entry msg ~want] multicasts [msg] to [dest]
    (a group or a single process): it is {!bcast_multi} with the one
    destination.

    With [want = No_reply] the call is {e asynchronous}: it returns
    immediately after initiating the protocol and the caller may
    continue computing — yet may program as if the delivery were
    instantaneous (virtual synchrony).  Otherwise the calling task
    blocks until enough replies arrive or the remaining destinations
    fail.  A send into a wedged group copy (between views, or in a
    minority partition component) waits for the next view, and dies
    with the copy if a partition evicts it. *)
val bcast :
  proc -> mode -> dest:Addr.t -> entry:Entry.t -> Message.t -> want:want -> outcome

(** [bcast_multi p mode ~dests ~entry msg ~want] — the paper's full
    mcast signature: one message to a {e list} of destinations (groups
    and processes mixed), one send, and one reply session that takes
    one reply from each distinct responder.  A group this site holds a
    copy of takes the send at call time, counted against admission and
    {!flush}.  A group it holds no copy of is relayed through the
    directory's contact site, which reports the group's members as
    responders; if that relay dies before reporting, the call returns
    [All_failed] (the send may or may not have happened, so the caller
    may retry).  A group with no known contact adds no responder, and a
    call that reaches no destination returns [All_failed] at once. *)
val bcast_multi :
  proc -> mode -> dests:Addr.t list -> entry:Entry.t -> Message.t -> want:want -> outcome

(** Verdict of an admission-controlled send ({!bcast_try}). *)
type send_verdict =
  | Admitted of outcome  (** the send went through; the usual outcome. *)
  | Backpressure of Addr.group_id
      (** the destination group is overloaded — its origination
          backlog is at the admission limit — and the message was
          {e not} sent. *)

(** [bcast_try] is {!bcast} with non-blocking admission control: if the
    destination group is overloaded it returns {!Backpressure} without
    sending, otherwise it behaves exactly like {!bcast}.  Process
    destinations and relayed (not locally visible) groups are never
    backpressured.

    The admission limit is derived, not configured, and is the same for
    every primitive: a group is overloaded once the multicasts this site
    accepted for it but has not yet handed on — CBCASTs, ABCASTs and
    GBCASTs still waiting on the modelled send CPU, plus ABCASTs queued
    for a window slot — reach twice the origination window
    ([config.ab_window]).  Two windows is one in flight plus one ready
    to launch, so the half-window dispatch bursts never run dry; a
    longer backlog only queues send CPU work in front of the protocol
    frames that finish rounds and acknowledge messages.  The transport
    holds no budget of its own, so this rule alone paces a flood of any
    mode. *)
val bcast_try :
  proc -> mode -> dest:Addr.t -> entry:Entry.t -> Message.t -> want:want -> send_verdict

(** [bcast_wait] is {!bcast} with blocking admission control: the
    calling task parks until the overload clears (woken by accepted
    multicasts leaving the send CPU queue and by pipeline dispatches,
    including the one that follows a view change), then sends.
    [on_backpressure gid] runs once if the call actually had to wait —
    the hook applications use to count shed/slowed requests.  Must run
    inside a task, like any blocking primitive. *)
val bcast_wait :
  ?on_backpressure:(Addr.group_id -> unit) ->
  proc -> mode -> dest:Addr.t -> entry:Entry.t -> Message.t -> want:want -> outcome

(** [reply p ~request answer] answers a message delivered to [p] that
    carries a session (1 asynchronous CBCAST, 1 destination). *)
val reply : proc -> request:Message.t -> Message.t -> unit

(** [reply_cc p ~request answer ~copy_to] also delivers a copy of the
    answer to each process in [copy_to], at their
    [Entry.generic_cc_reply] entry (used by coordinator-cohort). *)
val reply_cc : proc -> request:Message.t -> Message.t -> copy_to:Addr.proc list -> unit

(** [null_reply p ~request] tells the caller not to wait for a real
    reply from [p] (standbys; paper Sec 3.2). *)
val null_reply : proc -> request:Message.t -> unit

(** [flush p] blocks until every asynchronous multicast [p] has issued
    is delivered at all its destinations (paper Sec 3.2 footnote: call
    before interacting with the external world or stable storage). *)
val flush : proc -> unit

(** [redeliver p m] re-runs entry dispatch for a message a filter
    previously absorbed (the state transfer tool buffers inbound
    traffic this way until the transferred state is installed). *)
val redeliver : proc -> Message.t -> unit

(** [delivery_mode m] is the primitive that carried a delivered
    message, stamped by the sending runtime (the compliance-checking
    tool is built on this). *)
val delivery_mode : Message.t -> mode option

(** Encoding of {!Types.want} used in the system field carried by
    reply-collecting multicasts. *)
val want_to_int : want -> int

val want_of_int : int -> want

(** {1 Hygiene gauges}

    All three drain to zero once traffic quiesces; tests assert this to
    catch protocol-state leaks. *)

val pending_unstable : t -> int
val pending_held_frames : t -> int
val pending_sessions : t -> int

(** [pending_store t] — buffered multicast copies awaiting stability
    across all groups (the paper's Sec 4 GC target). *)
val pending_store : t -> int

(** [dedup_residue t] — delivery-dedup records not yet covered by a
    stability watermark, across all groups.  Once a multicast is
    {e stable} (every destination received it, the trigger that also
    GCs the retransmission store) the engines' per-origin-site
    watermarks advance past it, so this drains to zero at
    quiescence. *)
val dedup_residue : t -> int
