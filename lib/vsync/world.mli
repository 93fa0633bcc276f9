(** Deployment harness: a complete multi-site ISIS deployment.

    Bundles an execution backend, the transport fabric, one {!Runtime}
    per site, and a trace — everything a test, example or benchmark
    needs to stand up "a cluster" in a few lines:

    {[
      let w = World.create ~sites:4 () in
      let p0 = World.proc w ~site:0 ~name:"creator" in
      World.run_task w p0 (fun () -> ...);   (* body may block *)
      World.run w                            (* drive to quiescence *)
    ]}

    Two backends ({!backend_kind}): the default deterministic simulator
    (virtual time, fault injection, bit-reproducible from the seed) and
    the wall-clock driver (real time, real asynchrony, hardware speed —
    {!Vsync_backend.Wallclock}).  The protocol stack is the same
    compiled code either way.  Simulator-only operations — {!engine},
    {!net}, fault injection, nemesis — raise [Invalid_argument] on a
    wall-clock world. *)

type backend_kind =
  | Sim  (** deterministic discrete-event simulation (the default). *)
  | Wall of Vsync_backend.Wallclock.config
      (** real time; no loss model, no nemesis, no determinism. *)

type t

(** [create ~sites ~seed ~net_config ~runtime_config ()] builds a
    deployment with all sites up.  [net_config] applies only to the
    simulator backend (the wall backend carries its own latency knobs in
    its {!backend_kind} payload). *)
val create :
  ?backend:backend_kind ->
  ?seed:int64 ->
  ?net_config:Vsync_sim.Net.config ->
  ?runtime_config:Runtime.config ->
  ?clock_skew_us:int ->
  sites:int ->
  unit ->
  t

(** The world's execution backend. *)
val backend : t -> Vsync_backend.Backend.t

(** Which backend drives this world. *)
val kind : t -> Vsync_backend.Backend.kind

(** Simulator-only accessors.
    @raise Invalid_argument on a wall-clock world. *)
val engine : t -> Vsync_sim.Engine.t

val net : t -> Vsync_sim.Net.t
val trace : t -> Vsync_sim.Trace.t
val n_sites : t -> int

(** [runtime w s] is site [s]'s protocols process. *)
val runtime : t -> int -> Runtime.t

(** [proc w ~site ~name] spawns a process at [site]. *)
val proc : t -> site:int -> name:string -> Runtime.proc

(** [run_task w p f] starts [f] as a task of [p] (it may block on group
    RPCs etc.). *)
val run_task : t -> Runtime.proc -> (unit -> unit) -> unit

(** [run w] drives the deployment for 60 seconds of backend time
    (failure detector probes recur forever, so there is no natural
    quiescence); [run ~until w] stops at the given backend time instead.
    On a wall-clock world those are real seconds — prefer {!run_for} or
    {!run_cond} there. *)
val run : ?until:int -> t -> unit

(** [run_for w us] advances backend time by [us]. *)
val run_for : t -> int -> unit

(** [run_cond ~timeout_us w pred] drives the world until [pred ()]
    holds or [timeout_us] elapses; returns the predicate's final
    verdict.  The only sane way to wait for a condition (group formed,
    N messages delivered) on the wall-clock backend, and works
    identically on the simulator.  [slice_us] (default 2 ms) means:
    - on the simulator, the virtual time run between askings of
      [pred];
    - on the wall clock, the longest [pred] goes unasked.  It is asked
      whenever no event is due, so the call returns as soon as it
      holds; the slice only matters under a backlog, when events are
      always due. *)
val run_cond : ?slice_us:int -> timeout_us:int -> t -> (unit -> bool) -> bool

(** [now w] is the current backend time (virtual µs on the simulator,
    elapsed real µs on the wall clock). *)
val now : t -> int

(** {1 Failure injection (simulator only)}

    Each of these raises [Invalid_argument] on a wall-clock world. *)

(** [crash_site w s] crashes site [s] (network + runtime + processes). *)
val crash_site : t -> int -> unit

(** [restart_site w s] restores a crashed site under a new
    incarnation. *)
val restart_site : t -> int -> unit

(** [partition w left right] splits the network; [heal w] repairs it. *)
val partition : t -> int list -> int list -> unit

val heal : t -> unit

(** [nemesis_actions w] routes nemesis site ops through the full
    deployment ({!crash_site} / {!restart_site}, i.e. network and
    runtime together). *)
val nemesis_actions : t -> Vsync_sim.Nemesis.actions

(** [apply_nemesis w plan] schedules a fault plan against this world,
    relative to the current virtual time. *)
val apply_nemesis : t -> Vsync_sim.Nemesis.plan -> unit

(** {1 Accounting} *)

(** [metrics w] is every site's {!Runtime.metrics} registry sampled
    now and summed by name ({!Vsync_obs.Metrics.merge_snapshots}):
    Table I's [prim.*] counters, the [transport.*] gauges and the rest,
    for the whole world.  A simulated network's own packet counts are
    {!Vsync_sim.Net.packets_sent} and its siblings. *)
val metrics : t -> (string * Vsync_obs.Metrics.value) list
