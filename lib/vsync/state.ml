(* The per-site protocols process's state: the record types every
   protocol module shares, and the basic helpers over them (indexes,
   directory, failure-detector subscriptions, frame sending, typed
   tracing).  Nothing here runs a protocol step. *)

open Types
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Backend = Vsync_backend.Backend
module Trace = Vsync_sim.Trace
module Sched = Vsync_tasks.Sched
module Ivar = Vsync_tasks.Ivar
module Condition = Vsync_tasks.Condition
module Endpoint = Vsync_transport.Endpoint
module Stats = Vsync_util.Stats
module Deque = Vsync_util.Deque
module Obs_tracer = Vsync_obs.Tracer
module Obs_event = Vsync_obs.Event
module Metrics = Vsync_obs.Metrics
module Int_set = Set.Make (Int)

(* What happens to multicasts originated inside a minority-wedged
   component: [Buffer] queues them like any wedge does (they replay if
   the component recovers its primacy, and are dropped with the state
   on eviction); [Reject] fails them immediately with the typed
   [Partitioned] exception. *)
type minority_policy = Buffer | Reject

type config = {
  cpu_send_us : int;
  cpu_recv_us : int;
  cpu_us_per_kb : int;
  cpu_us_per_extra_packet : int;
  ab_window : int;
  clock_offset_us : int;
  minority_policy : minority_policy;
  endpoint : Endpoint.config;
}

let default_config =
  {
    cpu_send_us = 6_000;
    cpu_recv_us = 5_000;
    cpu_us_per_kb = 700;
    cpu_us_per_extra_packet = 8_000;
    ab_window = 16;
    clock_offset_us = 0;
    minority_policy = Buffer;
    endpoint = Endpoint.default_config;
  }

exception Partitioned of Addr.group_id

(* System fields riding on application messages (in addition to the
   $sender/$session/$entry fields managed by Vsync_msg.Message). *)
let f_want = "$want"
let f_mode = "$mode"
let f_is_reply = "$is_reply"
let f_null = "$null"
let f_pg_kill = "$pg_kill"

let mode_to_int = function Cbcast -> 0 | Abcast -> 1 | Gbcast -> 2

let mode_of_int = function 0 -> Some Cbcast | 1 -> Some Abcast | 2 -> Some Gbcast | _ -> None

let want_to_int = function No_reply -> 0 | Wait_all -> -1 | Wait_n n -> n
let want_of_int = function 0 -> No_reply | -1 -> Wait_all | n -> Wait_n n

type outcome =
  | Replies of (Addr.proc * Message.t) list
  | All_failed

type proc = {
  puid : int; (* globally unique across all runtimes and simulations *)
  addr : Addr.proc;
  pname : string;
  rt : t;
  sched : Sched.t;
  entries : (Entry.t, Message.t -> unit) Hashtbl.t;
  mutable filters : (Message.t -> bool) list;
  mutable palive : bool;
  mutable memberships : int list; (* gids *)
  mutable outstanding : Uid_set.t;
  mutable pending_inits : int;
      (* multicasts accepted by bcast but not yet through the CPU queue:
         flush must wait for these too *)
  flushers : Condition.t;
}

and group = {
  gid : Addr.group_id;
  gname : string;
  mutable view : View.t;
  mutable causal : Message.t Causal.t;
  mutable total : Message.t Total.t;
  mutable store : Proto.stored Uid_map.t;
  mutable wedge : wedge_state option;
  mutable blocked_sends : (proc option * mode * Message.t) list; (* newest first *)
  ab_queue : (proc option * Message.t) Queue.t;
      (* ABCASTs accepted for origination but waiting for a pipeline
         slot: at most [ab_window] phase-1 rounds originated here may be
         outstanding at once *)
  mutable ab_accepted : int;
      (* ABCASTs [bcast] accepted that are still on the send CPU queue,
         not yet handed to [origin_multicast]; with [ab_queue] this is
         the backlog admission control bounds *)
  mutable ab_inflight : int;
  mutable g_monitors : (proc * (View.t -> View.change list -> unit)) list;
  mutable join_validator : (proc * (Addr.proc -> Message.t -> bool)) option;
  mutable suspects : Int_set.t;
  mutable failed_procs : Addr.proc list;
      (* processes a past view change removed as FAILED.  Failures are
         clean: nothing further from them may be delivered — a falsely
         suspected process is still alive and will keep multicasting
         (directly or through the client relay), so origination rejects
         its messages until a rejoin clears it *)
  mutable pending_events : pending_event Deque.t; (* oldest first *)
  mutable gb_outstanding : (uid * Message.t) list;
      (* GBCASTs this site originated that no installed view has
         delivered yet (newest first).  The origin keeps responsibility:
         a [Gb_req] routed to a coordinator that a partition (or its
         eviction) swallowed would otherwise vanish — the request lives
         only in that coordinator's queue.  Each install prunes the
         delivered ones and re-routes the rest at the new view's
         coordinator; [enqueue_event] dedups re-routed copies by uid. *)
  mutable change : change_state option;
  mutable last_attempt : int;
  mutable last_commit : Proto.frame option;
  mutable minority : minority_state option;
      (* Some when a view-change attempt found this component below
         quorum (the primary-partition rule): the group is wedged with
         no change in flight, origination is blocked or rejected per
         [config.minority_policy], and a probe loop watches for the
         heal — either the primary's newer view (eviction: discard
         state, rejoin fresh) or the suspicion clearing (false alarm:
         resume) *)
}

and wedge_state = { w_attempt : int; w_coord : int; w_epoch : int }

and minority_state = {
  m_attempt : int;
  mutable m_batch : pending_event list;
      (* the membership batch whose application would have lost quorum;
         re-played through [start_change] if suspicion clears *)
  mutable m_rounds : int; (* probe rounds sent so far *)
}

and pending_event =
  | Ev_join of Addr.proc * Message.t
  | Ev_leave of Addr.proc
  | Ev_fail of Addr.proc * bool (* certain: reported by the victim's own site *)
  | Ev_gb of uid * Message.t

and change_state = {
  c_attempt : int;
  c_batch : pending_event list;
  c_sites : int list; (* wedge set, incl. self *)
  c_acks : (int, ack_info) Hashtbl.t; (* by site; coordinator hot path *)
  mutable c_fetch_wait : int list;
  mutable c_fetched : Proto.stored list;
  mutable c_committed : bool;
      (* the commit is on the wire; the change record stays until our
         own copy is applied, so no new change starts against the
         retiring view *)
}

and ack_info = {
  a_cb_known : Uid_set.t;
  a_ab_uids : Uid_set.t; (* uids of [a_ab_report], for membership tests *)
  a_ab_report : Proto.ab_report list;
  a_ab_counter : int;
  a_already : Proto.frame option;
}

and session_state = {
  sess_id : int;
  swant : want;
  mutable replies : (Addr.proc * Message.t) list; (* newest first *)
  mutable nulls : Addr.proc list;
  mutable sfailed : Addr.proc list;
  mutable responders : Addr.proc list option;
  mutable relay_site : int option;
  done_ivar : outcome Ivar.t;
  mutable mon_sites : int list;
}

and unstable = {
  mutable remaining : int list;
  u_owner : proc option;
  u_group : Addr.group_id;
  u_dests : int list;
}

and ab_collect = {
  ac_group : Addr.group_id;
  mutable ac_expect : int list; (* sites still to propose *)
  mutable ac_max : prio;
}

and t = {
  fab : fabric;
  my_site : int;
  cfg : config;
  bk : Backend.t;
  tracer : Trace.t;
  mutable ep : Proto.frame Endpoint.t option; (* set right after create *)
  mutable route : group -> pending_event -> unit;
      (* the one call that goes up the module stack: a local process
         kill (delivery) and a GBCAST (origination) hand their event to
         the group coordinator through it.  [Runtime.create] sets it to
         [Membership.route_event]. *)
  ctrs : Stats.Counter.t;
  metrics : Metrics.t;
  mutable running : bool;
  mutable next_proc_idx : int;
  mutable next_useq : int;
  mutable next_session : int;
  mutable next_qid : int;
  procs : (int, proc) Hashtbl.t;
  groups : (int, group) Hashtbl.t;
  held : (int, (int * Proto.frame) list) Hashtbl.t;
      (* gid -> future-view (src, frame), newest first *)
  dir : (string, Addr.group_id * int list) Hashtbl.t;
  dir_by_gid : (int, string) Hashtbl.t;
      (* reverse of [dir]: gid -> registered name, so per-group purges
         (teardown, stale-contact refusals) are keyed lookups instead of
         whole-directory scans — a site hosting hundreds of small groups
         must not pay O(directory) per group event *)
  contacts : (int, int list) Hashtbl.t;
  sessions : (int, session_state) Hashtbl.t;
  obligations : (int, (int * Addr.proc) list) Hashtbl.t; (* responder idx -> obligations *)
  dir_queries : (int, int ref * (Addr.group_id * int list) option Ivar.t) Hashtbl.t;
  unstables : (uid, unstable) Hashtbl.t;
  unstable_by_group : (int, Uid_set.t ref) Hashtbl.t;
      (* per-group index over [unstables]: view install and teardown
         settle one group's records without folding the global table *)
  ab_collects : (uid, ab_collect) Hashtbl.t;
  collects_by_group : (int, Uid_set.t ref) Hashtbl.t; (* same, for [ab_collects] *)
  join_waiters : (int * int, (unit, string) result Ivar.t) Hashtbl.t; (* gid, proc idx *)
  join_pending : (int, int) Hashtbl.t;
      (* per-gid waiter count: [handle_group_frame] asks "any local join
         in flight for this group?" per unknown-group frame *)
  leave_waiters : (int * int, unit Ivar.t) Hashtbl.t;
  mutable site_watchers : ([ `Down of int | `Up of int ] -> unit) list;
  mon_refs : (int, int) Hashtbl.t;
  admission : Condition.t;
      (* originators blocked in [bcast_wait] sleep here; woken whenever
         transport credit is refunded, an accepted ABCAST leaves the CPU
         queue, the ABCAST pipeline dispatches queued rounds, or a group
         copy goes away *)
  mutable cpu_free : int; (* backend µs *)
  mutable cpu_busy : int;
  send_jobs : int Queue.t;
      (* send-path CPU jobs not yet finished, oldest first: the group of
         a CBCAST, [-1] for any other send (kept only while packing) *)
  mutable packed : (unit -> unit) list;
      (* CBCAST originations held for their successor, newest first *)
  mutable packed_bytes : int;
  cb_held : Metrics.counter;
}

and fabric = {
  fbk : Backend.t;
  ep_fabric : Proto.frame Endpoint.fabric;
}

let make_fabric bk = { fbk = bk; ep_fabric = Endpoint.fabric bk }
let fabric_backend f = f.fbk

let site t = t.my_site
let backend t = t.bk
let alive t = t.running
let counters t = t.ctrs
let trace t = t.tracer
let metrics t = t.metrics
let cpu_busy_us t = t.cpu_busy

(* Emit one typed event of class [cls].  [mk] is forced only when some
   listener wants the class.  Without flambda the thunk itself is a
   heap closure, so per-message hot paths (originate, deliver, ack,
   stabilize) inline the guard instead; this helper serves the cold
   paths (view changes, GC, errors, site status) where a closure per
   call is irrelevant. *)
let trace_event t cls mk =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr cls then Obs_tracer.emit tr (mk ())

(* The site's local wall clock: true simulation time plus this site's
   (unknown to it) offset.  The real-time tool's clock synchronization
   estimates and cancels the offsets. *)
let local_time_us t = Backend.now t.bk + t.cfg.clock_offset_us

let uptime_utilization t =
  let now = Backend.now t.bk in
  if now = 0 then 0.0 else float_of_int t.cpu_busy /. float_of_int now

let gi = Addr.group_to_int

(* --- per-group secondary indexes ---

   [unstables] and [ab_collects] are global uid-keyed tables; these
   helpers maintain gid-keyed shadow sets so group-scoped sweeps touch
   only their own records. *)

let grp_index_add tbl gid_int uid =
  let r =
    match Hashtbl.find_opt tbl gid_int with
    | Some r -> r
    | None ->
      let r = ref Uid_set.empty in
      Hashtbl.replace tbl gid_int r;
      r
  in
  r := Uid_set.add uid !r

let grp_index_remove tbl gid_int uid =
  match Hashtbl.find_opt tbl gid_int with
  | Some r ->
    r := Uid_set.remove uid !r;
    if Uid_set.is_empty !r then Hashtbl.remove tbl gid_int
  | None -> ()

(* [grp_index_take tbl gid] empties the group's set and returns its
   elements. *)
let grp_index_take tbl gid_int =
  match Hashtbl.find_opt tbl gid_int with
  | Some r ->
    Hashtbl.remove tbl gid_int;
    Uid_set.elements !r
  | None -> []

(* --- join-waiter registry (count shadowed per gid) --- *)

let jw_add t ~gid_int ~idx iv =
  Hashtbl.replace t.join_waiters (gid_int, idx) iv;
  Hashtbl.replace t.join_pending gid_int
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.join_pending gid_int))

let jw_take t ~gid_int ~idx =
  match Hashtbl.find_opt t.join_waiters (gid_int, idx) with
  | Some iv ->
    Hashtbl.remove t.join_waiters (gid_int, idx);
    (match Hashtbl.find_opt t.join_pending gid_int with
    | Some n when n > 1 -> Hashtbl.replace t.join_pending gid_int (n - 1)
    | Some _ -> Hashtbl.remove t.join_pending gid_int
    | None -> ());
    Some iv
  | None -> None

let jw_any t gid_int = Hashtbl.mem t.join_pending gid_int

(* --- name directory, with its gid reverse index --- *)

let dir_set t name (gid, sites) =
  Hashtbl.replace t.dir name (gid, sites);
  Hashtbl.replace t.dir_by_gid (gi gid) name

let dir_remove t name =
  match Hashtbl.find_opt t.dir name with
  | Some (gid, _) ->
    Hashtbl.remove t.dir name;
    (match Hashtbl.find_opt t.dir_by_gid (gi gid) with
    | Some n when String.equal n name -> Hashtbl.remove t.dir_by_gid (gi gid)
    | Some _ | None -> ())
  | None -> ()

(* [drop_hint t ~gid_int ~site] stops offering [site] as a contact for
   group [gid_int]: it leaves the group's contact list and the hints of
   the (single) name registered for the group, and either entry goes
   when no site remains — keyed updates, not a whole-directory scan. *)
let drop_hint t ~gid_int ~site =
  (match Hashtbl.find_opt t.contacts gid_int with
  | Some sites -> (
    match List.filter (( <> ) site) sites with
    | [] -> Hashtbl.remove t.contacts gid_int
    | remaining -> Hashtbl.replace t.contacts gid_int remaining)
  | None -> ());
  match Hashtbl.find_opt t.dir_by_gid gid_int with
  | None -> ()
  | Some name -> (
    match Hashtbl.find_opt t.dir name with
    | Some (gid', sites) when gi gid' = gid_int -> (
      match List.filter (( <> ) site) sites with
      | [] -> dir_remove t name
      | remaining -> Hashtbl.replace t.dir name (gid', remaining))
    | Some _ | None -> ())

(* [s] is down: purge it from every contact list and name hint. *)
let forget_site t s =
  Hashtbl.iter
    (fun gid_int sites ->
      (* One filtering pass instead of a membership scan followed by a
         second filter scan. *)
      let remaining = List.filter (( <> ) s) sites in
      if List.compare_lengths remaining sites <> 0 then
        Hashtbl.replace t.contacts gid_int remaining)
    (Hashtbl.copy t.contacts);
  Hashtbl.iter
    (fun name (gid, sites) ->
      let remaining = List.filter (( <> ) s) sites in
      if List.compare_lengths remaining sites <> 0 then
        if remaining = [] then dir_remove t name
        else Hashtbl.replace t.dir name (gid, remaining))
    (Hashtbl.copy t.dir)

let endpoint t =
  match t.ep with Some e -> e | None -> invalid_arg "Runtime: endpoint not wired"

(* Frames that are "about" one multicast — the per-uid timeline raw
   material.  Control frames without a uid (directory, membership,
   flush plumbing) stay visible through the transport's
   [Packet_send]/[Packet_recv] events. *)
let frame_uid_kind = function
  | Proto.Cb_data { uid; _ } -> Some ("cb_data", uid)
  | Proto.Ab_data { uid; _ } -> Some ("ab_data", uid)
  | Proto.Ab_prio { uid; _ } -> Some ("ab_prio", uid)
  | Proto.Ab_commit { uid; _ } -> Some ("ab_commit", uid)
  | Proto.Deliver_ack { uid; _ } -> Some ("deliver_ack", uid)
  | Proto.Stable { uid; _ } -> Some ("stable", uid)
  | _ -> None

(* Frame_tx/Frame_rx, guarded before [frame_uid_kind] so the disabled
   path allocates nothing. *)
let emit_frame_event t ~peer ~rx frame =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Proto then
    match frame_uid_kind frame with
    | Some (kind, u) ->
      Obs_tracer.emit tr
        (if rx then
           Obs_event.Frame_rx
             { site = t.my_site; src = peer; kind; usite = u.usite; useq = u.useq }
         else
           Obs_event.Frame_tx
             { site = t.my_site; dst = peer; kind; usite = u.usite; useq = u.useq })
    | None -> ()

let send_frame t ~dst frame =
  if t.running then begin
    emit_frame_event t ~peer:dst ~rx:false frame;
    Endpoint.send (endpoint t) ~dst frame
  end

let fresh_uid t =
  let u = { usite = t.my_site; useq = t.next_useq } in
  t.next_useq <- t.next_useq + 1;
  u

let fresh_session t =
  let s = t.next_session in
  t.next_session <- s + 1;
  s

(* --- refcounted failure-detector subscriptions --- *)

let mon_acquire t s =
  if s <> t.my_site && t.running then begin
    let n = Option.value ~default:0 (Hashtbl.find_opt t.mon_refs s) in
    Hashtbl.replace t.mon_refs s (n + 1);
    if n = 0 then Endpoint.monitor (endpoint t) ~site:s
  end

let mon_release t s =
  if s <> t.my_site then
    match Hashtbl.find_opt t.mon_refs s with
    | None -> ()
    | Some n when n <= 1 ->
      Hashtbl.remove t.mon_refs s;
      if t.running then Endpoint.unmonitor (endpoint t) ~site:s
    | Some n -> Hashtbl.replace t.mon_refs s (n - 1)

(* --- processes and groups: lookups --- *)

let proc_addr p = p.addr
let proc_uid p = p.puid
let proc_name p = p.pname
let proc_alive p = p.palive && p.rt.running
let runtime_of p = p.rt

(* Oldest filter first — side-effectful filters (state transfer
   buffering) rely on installation order — with short-circuit on the
   first rejection, like the [List.for_all] over the append-ordered
   list this replaces. *)
let rec filters_pass rev_filters body =
  match rev_filters with
  | [] -> true
  | f :: older -> filters_pass older body && f body

let find_proc t (a : Addr.proc) =
  match Hashtbl.find_opt t.procs a.Addr.idx with
  | Some p when Addr.equal_proc p.addr a && p.palive -> Some p
  | Some _ | None -> None

let local_members t g = View.members_at_site g.view t.my_site

let group_of t gid = Hashtbl.find_opt t.groups (gi gid)

let remote_member_sites t g =
  List.filter (fun s -> s <> t.my_site) (View.sites g.view)

let remember_contacts t gid sites =
  Hashtbl.replace t.contacts (gi gid) sites

(* Acting coordinator: the site of the oldest member whose site we do
   not currently suspect. *)
let acting_coord_site g =
  let rec loop = function
    | [] -> None
    | (m : Addr.proc) :: rest ->
      if Int_set.mem m.Addr.site g.suspects then loop rest else Some m.Addr.site
  in
  loop g.view.View.members

let i_am_coord t g = acting_coord_site g = Some t.my_site

(* The sites of [g]'s view this site can still reach, self included:
   the set a coordinator wedges. *)
let component_sites t g =
  let live_sites = List.filter (fun s -> not (Int_set.mem s g.suspects)) (View.sites g.view) in
  List.sort_uniq compare (t.my_site :: live_sites)

(* Wedge [g]'s current view at [sites], with this site as coordinator
   of [attempt]. *)
let send_wedge t g ~attempt sites =
  List.iter
    (fun dst ->
      send_frame t ~dst
        (Proto.Wedge
           { group = g.gid; view_id = g.view.View.view_id; attempt; coord_site = t.my_site;
             coord_epoch = Endpoint.epoch (endpoint t) }))
    sites

(* Tell [dst] which view of [g] is current: a sender still working in
   a dead lineage takes its partition-eviction path and rejoins. *)
let send_current_view t ~dst g =
  send_frame t ~dst (Proto.View_probe_reply { group = g.gid; view_id = g.view.View.view_id })

let make_group t ~gid ~gname ~view =
  {
    gid;
    gname;
    view;
    causal = Causal.create ~n_ranks:(View.n_members view) ();
    total = Total.create ~site:t.my_site ();
    store = Uid_map.empty;
    wedge = None;
    blocked_sends = [];
    ab_queue = Queue.create ();
    ab_accepted = 0;
    ab_inflight = 0;
    g_monitors = [];
    join_validator = None;
    suspects = Int_set.empty;
    failed_procs = [];
    pending_events = Deque.empty;
    change = None;
    last_attempt = 0;
    last_commit = None;
    minority = None;
    gb_outstanding = [];
  }

(* Park a frame for a view this site has not installed yet. *)
let hold_frame t ~src gid_int frame =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.held gid_int) in
  Hashtbl.replace t.held gid_int ((src, frame) :: cur)

(* [after t g ~delay k] runs [k ()] in [delay] µs if the site is still
   up and [g] is still its copy of the group: a timer must not act on a
   copy that was torn down (or replaced) while it waited. *)
let after t g ~delay k =
  let gid_int = gi g.gid in
  ignore
    (Backend.schedule t.bk ~delay (fun () ->
         if t.running then
           match Hashtbl.find_opt t.groups gid_int with
           | Some g' when g' == g -> k ()
           | Some _ | None -> ()))

(* --- flush waiters --- *)

let maybe_wake_flushers p =
  if p.pending_inits = 0 && Uid_set.is_empty p.outstanding then Condition.broadcast p.flushers

(* The group's unstable records are settled wholesale (a flush
   installed, or the copy died): forget them and release their
   owners' [flush] waiters. *)
let settle_unstables t gid_int =
  List.iter
    (fun uid ->
      match Hashtbl.find_opt t.unstables uid with
      | None -> ()
      | Some (u : unstable) -> (
        Hashtbl.remove t.unstables uid;
        match u.u_owner with
        | Some p when p.palive ->
          p.outstanding <- Uid_set.remove uid p.outstanding;
          maybe_wake_flushers p
        | Some _ | None -> ()))
    (grp_index_take t.unstable_by_group gid_int);
  List.iter (fun u -> Hashtbl.remove t.ab_collects u) (grp_index_take t.collects_by_group gid_int)
