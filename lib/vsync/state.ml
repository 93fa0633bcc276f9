(* The per-site protocols process's state: the record types every protocol
   module shares, and the basic helpers over them (indexes, directory, frame
   sending, typed tracing).  Nothing here runs a protocol step. *)

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
module Obs_tracer = Vsync_obs.Tracer
module Obs_event = Vsync_obs.Event
module Metrics = Vsync_obs.Metrics
module Int_set = Set.Make (Int)

type config = {
  cpu_send_us : int;
  cpu_recv_us : int;
  cpu_us_per_kb : int;
  cpu_us_per_extra_packet : int;
  ab_window : int;
  clock_offset_us : int;
}

let default_config =
  {
    cpu_send_us = 6_000;
    cpu_recv_us = 5_000;
    cpu_us_per_kb = 700;
    cpu_us_per_extra_packet = 8_000;
    ab_window = 16;
    clock_offset_us = 0;
  }

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
  mutable fl : Flush.state;
      (* the view and the flush's protocol state: written only by
         [Membership.feed], from [Flush.step] *)
  mutable causal : Message.t Causal.t;
  mutable total : Message.t Total.t;
  mutable store : Proto.stored Uid_map.t;
  mutable blocked_sends : (proc option * mode * Message.t) list; (* newest first *)
  ab_queue : (proc option * Message.t) Queue.t;
      (* ABCASTs accepted for origination but waiting for a pipeline
         slot: at most [ab_window] phase-1 rounds originated here may be
         outstanding at once *)
  mutable accepted : int;
      (* multicasts of any mode [bcast] accepted that are still on the
         send CPU queue, not yet handed to [origin_multicast]; with
         [ab_queue] this is the backlog admission control bounds *)
  mutable ab_inflight : int;
  mutable g_monitors : (proc * (View.t -> View.change list -> unit)) list;
  mutable join_validator : (proc * (Addr.proc -> Message.t -> bool)) option;
  mutable failed_procs : Addr.proc list;
      (* processes a past view change removed as FAILED.  Failures are
         clean: nothing further from them may be delivered — a falsely
         suspected process is still alive and will keep multicasting
         (directly or through the client relay), so origination rejects
         its messages until a rejoin clears it *)
  mutable unstables : unstable Uid_map.t;
      (* multicasts this site originated in the current view that some
         remote member has not acknowledged yet *)
  mutable collects : ab_collect Uid_map.t;
      (* ABCAST rounds this site originated in the current view that are
         still collecting proposed priorities *)
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
  u_dests : int list;
}

and ab_collect = {
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
  mutable feed : group -> Flush.input -> unit;
      (* the one call that goes up the module stack: a local process
         kill (delivery) and a GBCAST (origination) hand their event to
         the flush through it.  [Runtime.create] sets it to
         [Membership.feed]. *)
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
  join_waiters : (int * int, (unit, string) result Ivar.t) Hashtbl.t; (* gid, proc idx *)
  join_pending : (int, int) Hashtbl.t;
      (* per-gid waiter count: [handle_group_frame] asks "any local join
         in flight for this group?" per unknown-group frame *)
  leave_waiters : (int * int, unit Ivar.t) Hashtbl.t;
  mutable site_watchers : ([ `Down of int | `Up of int ] -> unit) list;
  admission : Condition.t;
      (* originators blocked in [bcast_wait] sleep here; woken whenever
         an accepted multicast leaves the CPU queue, the ABCAST pipeline
         dispatches queued rounds, or a group copy goes away *)
  mutable cpu_free : int; (* backend µs *)
  mutable cpu_busy : int;
  send_jobs : int Queue.t;
      (* send-path CPU jobs not yet finished, oldest first: the group of
         a CBCAST, [-1] for any other send (kept only while packing) *)
  mutable packed : (group * Message.t * (ack:bool -> unit)) list;
      (* CBCAST originations held for their successor, newest first:
         the copy, the body, and the hand-off that originates it *)
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

(* The installed view of [g] at this site. *)
let view g = g.fl.Flush.view

let local_members t g = View.members_at_site (view g) t.my_site

let group_of t gid = Hashtbl.find_opt t.groups (gi gid)

let remote_member_sites t g =
  List.filter (fun s -> s <> t.my_site) (View.sites (view g))

let remember_contacts t gid sites =
  Hashtbl.replace t.contacts (gi gid) sites

(* Tell [dst] which view of [g] is current: a sender still working in
   a dead lineage takes its partition-eviction path and rejoins. *)
let send_current_view t ~dst g =
  send_frame t ~dst (Proto.View_probe_reply { group = g.gid; view_id = (view g).View.view_id })

(* The flush state of a fresh copy of a group holding [view]. *)
let flush_state t ~gname view =
  Flush.create ~me:t.my_site ~epoch:(Endpoint.epoch (endpoint t)) ~gname view

let make_group ~gid fl =
  {
    gid;
    fl;
    causal = Causal.create ~n_ranks:(View.n_members fl.Flush.view) ();
    total = Total.create ~site:fl.Flush.me ();
    store = Uid_map.empty;
    blocked_sends = [];
    ab_queue = Queue.create ();
    accepted = 0;
    ab_inflight = 0;
    g_monitors = [];
    join_validator = None;
    failed_procs = [];
    unstables = Uid_map.empty;
    collects = Uid_map.empty;
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
   installed, or the copy died): forget them and its open ABCAST
   collections, and release the owners' [flush] waiters. *)
let settle_unstables g =
  let settled = g.unstables in
  g.unstables <- Uid_map.empty;
  g.collects <- Uid_map.empty;
  Uid_map.iter
    (fun uid (u : unstable) ->
      match u.u_owner with
      | Some p when p.palive ->
        p.outstanding <- Uid_set.remove uid p.outstanding;
        maybe_wake_flushers p
      | Some _ | None -> ())
    settled
