(** The standard nemesis scenario: a fully-formed group with one member
    per site, periodic tagged multicast traffic (a seeded CBCAST /
    ABCAST / GBCAST mix), a fault plan running underneath, and the
    {!Oracle} watching everything.

    This is the shared harness behind the nemesis fuzz tests, the
    [fuzz-sweep] CLI, [vsim --nemesis] and the under-fault benchmark
    column.  Everything is derived from [seed], so a run is exactly
    reproducible and two identical invocations produce identical
    results. *)

type result = {
  plan : Vsync_sim.Nemesis.plan;  (** the plan that ran. *)
  violations : Oracle.violation list;  (** empty = verdict PASS. *)
  oracle : Oracle.t;  (** for latencies and the report. *)
  world : World.t;  (** for counters / post-mortem. *)
  sent : int;
  delivered : int;  (** total deliveries summed over members. *)
  elapsed_us : int;  (** virtual time from traffic start to check. *)
}

(** [run ~seed ()] forms a [sites]-member group, drives traffic for
    [horizon_us] of virtual time while the fault plan runs, lets the
    system settle for [settle_us], then checks the oracle.  The plan
    defaults to [Nemesis.random_plan ~seed ~intensity]; pass [?plan] to
    use a hand-written one (or an empty list for a clean baseline).

    The scenario runs with the typed protocol-event stream enabled
    (class mask [Proto] only), so the oracle's typed-stream checks see
    data on every run.  Pass [?trace_sink] (e.g.
    [Vsync_obs.Jsonl.sink_to_channel oc]) to receive every event as it
    is emitted; the mask then widens to net + transport + proto.

    Returns [Error msg] if the harness itself could not be assembled
    (e.g. a member's group join was refused) — setup failures surface
    as values rather than aborting the whole sweep.

    Every site runs {!Runtime.default_config}: a scenario exercises the
    one configuration the runtime ships. *)
val run :
  ?sites:int ->
  ?horizon_us:int ->
  ?settle_us:int ->
  ?send_interval_us:int ->
  ?payload_bytes:int ->
  ?plan:Vsync_sim.Nemesis.plan ->
  ?intensity:float ->
  ?trace_sink:(Vsync_obs.Event.record -> unit) ->
  seed:int64 ->
  unit ->
  (result, string) Stdlib.result
