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

(* Emit one protocol-class typed event.  [mk] is forced only when some
   listener wants the class.  Without flambda the thunk itself is a
   heap closure, so per-message hot paths (originate, deliver, ack,
   stabilize) inline the guard instead; this helper serves the cold
   paths (view changes, GC, errors) where a closure per call is
   irrelevant. *)
let trace_proto t mk =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Proto then Obs_tracer.emit tr (mk ())

(* Same, for the partition-membership event class. *)
let trace_partition t mk =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Partition then Obs_tracer.emit tr (mk ())

(* Same, for free-form notes (typed error events). *)
let trace_note t mk =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Note then Obs_tracer.emit tr (mk ())

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

(* [dir_drop_site t ~gid_int ~site] removes [site] from the hints of
   the (single) name registered for [gid_int], dropping the entry when
   no hint remains — the keyed replacement for scanning the whole
   directory. *)
let dir_drop_site t ~gid_int ~site =
  match Hashtbl.find_opt t.dir_by_gid gid_int with
  | None -> ()
  | Some name -> (
    match Hashtbl.find_opt t.dir name with
    | Some (gid', sites) when gi gid' = gid_int -> (
      match List.filter (( <> ) site) sites with
      | [] -> dir_remove t name
      | remaining -> Hashtbl.replace t.dir name (gid', remaining))
    | Some _ | None -> ())

let endpoint t =
  match t.ep with Some e -> e | None -> invalid_arg "Runtime: endpoint not wired"

(* Transport-level wire accounting, for the wire-efficiency bench. *)
let transport_stats t =
  let ep = endpoint t in
  [
    ("data_frames", Endpoint.frames_sent ep);
    ("ack_frames", Endpoint.acks_sent ep);
    ("packets", Endpoint.packets_sent ep);
    ("retransmits", Endpoint.retransmits ep);
    ("channel_failures", Endpoint.channel_failures ep);
    ("inflight", Endpoint.inflight ep);
    ("recv_pending", Endpoint.recv_pending ep);
  ]

(* --- CPU model: one processor per site, FIFO service --- *)

(* Per-operation CPU cost: a fixed protocol cost, a copy cost
   proportional to the bytes handled (1987 kernels copied buffers
   several times), and a per-packet cost for every 4 KB fragment beyond
   the first — the paper: "the sharp rise in latency between message
   sizes of 1kbytes and 10kbytes occurs because large inter-site
   messages are fragmented into 4kbyte packets". *)
let cpu_cost t base bytes =
  let max_packet = Backend.max_packet_bytes t.fab.fbk in
  let extra_packets = if bytes <= max_packet then 0 else ((bytes - 1) / max_packet) in
  base + (bytes * t.cfg.cpu_us_per_kb / 1024) + (extra_packets * t.cfg.cpu_us_per_extra_packet)

let on_cpu t cost k =
  let now = Backend.now t.bk in
  let start = if t.cpu_free > now then t.cpu_free else now in
  let finish = start + cost in
  t.cpu_free <- finish;
  t.cpu_busy <- t.cpu_busy + cost;
  ignore (Backend.schedule_at t.bk finish (fun () -> if t.running then k ()))

(* --- send packing ---

   Every send-path CPU job goes through [on_send_cpu], which records it
   in the site's FIFO of queued sends.  When a CBCAST's job finishes and
   the next queued send is another CBCAST into the same group, its
   origination is held and runs, in call order, in the same instant as
   that successor's: a run of queued CBCASTs leaves together and shares
   one packet per destination, so each receiver pays [cpu_recv_us] once
   for the run instead of once per message.  Every message still pays
   its full send cost; only the moment its frames leave changes.  Any
   other send job releases the held originations first, so the site's
   send order never changes, and the held bytes stay within one packet.
   Packing is off where it cannot save a receive dispatch: no
   per-packet receive cost. *)
let packing t = t.cfg.cpu_recv_us > 0

let release_packed t =
  let held = List.rev t.packed in
  t.packed <- [];
  t.packed_bytes <- 0;
  List.iter (fun k -> k ()) held

(* [cbcast] is [Some (gid, bytes)] for a CBCAST into a locally-visible
   group. *)
let on_send_cpu t ?cbcast cost k =
  if not (packing t) then on_cpu t cost k
  else begin
    let group, bytes = Option.value cbcast ~default:(-1, 0) in
    Queue.push group t.send_jobs;
    (* A job queued by an earlier incarnation must not touch this one's
       FIFO. *)
    let epoch = Endpoint.epoch (endpoint t) in
    on_cpu t cost (fun () ->
        if Endpoint.epoch (endpoint t) = epoch then begin
          ignore (Queue.pop t.send_jobs);
          let cap = Backend.max_packet_bytes t.bk in
          if group >= 0 && bytes <= cap && Queue.peek_opt t.send_jobs = Some group then begin
            if t.packed_bytes + bytes > cap then release_packed t;
            t.packed <- k :: t.packed;
            t.packed_bytes <- t.packed_bytes + bytes;
            Metrics.incr t.cb_held
          end
          else begin
            release_packed t;
            k ()
          end
        end)
  end

(* Frames that are "about" one multicast — the per-uid timeline raw
   material.  Control frames without a uid (directory, membership,
   flush plumbing) stay visible through the note stream and the
   transport packet events. *)
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
    if Trace.enabled t.tracer then
      Trace.emitf t.tracer ~category:"frame" "s%d->s%d %a" t.my_site dst Proto.pp frame;
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

(* --- processes: basics --- *)

(* Per-domain: process uids need only be unique within one world, and
   worlds never span domains (the parallel harness runs one world per
   domain), so domain-local counters keep concurrent simulations from
   racing — and from perturbing each other's uids. *)
let next_puid_key = Vsync_util.Dls.make (fun () -> ref 0)
let next_puid () = Vsync_util.Dls.get next_puid_key

let proc_addr p = p.addr
let proc_uid p = p.puid
let proc_name p = p.pname
let proc_alive p = p.palive && p.rt.running
let runtime_of p = p.rt

let spawn_proc t ?name () =
  if not t.running then invalid_arg "Runtime.spawn_proc: site is down";
  let idx = t.next_proc_idx in
  t.next_proc_idx <- idx + 1;
  let addr = Addr.proc ~site:t.my_site ~idx ~incarnation:(Endpoint.epoch (endpoint t)) in
  let pname = match name with Some n -> n | None -> Printf.sprintf "p%d.%d" t.my_site idx in
  let next_puid = next_puid () in
  incr next_puid;
  let p =
    {
      puid = !next_puid;
      addr;
      pname;
      rt = t;
      sched = Sched.create ~name:pname ();
      entries = Hashtbl.create 8;
      filters = [];
      palive = true;
      memberships = [];
      outstanding = Uid_set.empty;
      pending_inits = 0;
      flushers = Condition.create ();
    }
  in
  Hashtbl.replace t.procs idx p;
  p

let spawn_task p f = if proc_alive p then Sched.spawn p.sched f

let sleep p us =
  if us < 0 then invalid_arg "Runtime.sleep: negative duration";
  Sched.suspend (fun resume -> ignore (Backend.schedule p.rt.bk ~delay:us (fun () -> resume ())))

let bind p entry handler =
  if entry < 0 || entry > 255 then invalid_arg "Runtime.bind: bad entry";
  Hashtbl.replace p.entries entry handler

(* Filters are stored newest-first (O(1) install); dispatch applies
   them oldest-first via [filters_pass]. *)
let add_filter p f = p.filters <- f :: p.filters

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

(* --- wedge-ack reconciliation ---

   What the flush coordinator decides from a complete set of wedge
   acknowledgements.  Shared by [proceed_with_acks] (which fetches the
   missing bodies) and [build_commit] (which re-derives the decisions
   when assembling the commit): membership tests run against the
   [Uid_set]s carried in [ack_info], where this logic historically did
   [List.mem] over per-site uid lists — O(sites · uids²) on a large
   flush. *)

type ack_resolution = {
  r_missing_cb : uid list; (* CBCASTs some wedged site has not received *)
  r_ab_finalize : (uid * prio) list; (* final priorities, sorted by uid *)
  r_final : (uid, prio) Hashtbl.t; (* same, keyed for per-uid lookups *)
  r_ab_drop : uid list; (* uncommitted ABCASTs from dead originators *)
  r_ab_missing : uid list; (* finalized ABCASTs some site lacks *)
}

let resolve_acks ~gid ~view_id (c : change_state) =
  (* Every lookup here trusts the invariant that acks arrived from
     exactly [c_sites]; when that breaks (a protocol bug), fail with the
     flush's full coordinates rather than a bare [Not_found]. *)
  let info_of s =
    match Hashtbl.find_opt c.c_acks s with
    | Some a -> a
    | None ->
      invalid_arg
        (Printf.sprintf
           "Runtime.resolve_acks: no wedge ack from site %d (group g%d view %d attempt %d; \
            acks from [%s])"
           s gid view_id c.c_attempt
           (String.concat " "
              (Hashtbl.fold (fun s _ acc -> string_of_int s :: acc) c.c_acks [])))
  in
  let union =
    Hashtbl.fold (fun _ a acc -> Uid_set.union acc a.a_cb_known) c.c_acks Uid_set.empty
  in
  let missing_cb =
    Uid_set.filter
      (fun u -> List.exists (fun s -> not (Uid_set.mem u (info_of s).a_cb_known)) c.c_sites)
      union
  in
  let ab_all : (uid, Proto.ab_report list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ a ->
      List.iter
        (fun (r : Proto.ab_report) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt ab_all r.Proto.ab_uid) in
          Hashtbl.replace ab_all r.Proto.ab_uid (r :: cur))
        a.a_ab_report)
    c.c_acks;
  let floor = Hashtbl.fold (fun _ a acc -> max acc a.a_ab_counter) c.c_acks 0 in
  let ab_uids = Hashtbl.fold (fun u _ acc -> u :: acc) ab_all [] |> List.sort uid_compare in
  let site_set = Int_set.of_list c.c_sites in
  let next_final = ref floor in
  let ab_finalize, ab_drop =
    List.fold_left
      (fun (fins, drops) u ->
        let reports =
          match Hashtbl.find_opt ab_all u with
          | Some rs -> rs
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Runtime.resolve_acks: no ab report for uid %d.%d (group g%d view %d attempt \
                  %d)"
                 u.usite u.useq gid view_id c.c_attempt)
        in
        match List.find_opt (fun r -> r.Proto.ab_committed) reports with
        | Some r -> ((u, r.Proto.ab_prio) :: fins, drops)
        | None ->
          if Int_set.mem u.usite site_set then begin
            (* Originator is live: finalize above every site's counter. *)
            incr next_final;
            ((u, (!next_final, u.usite)) :: fins, drops)
          end
          else (fins, u :: drops))
      ([], []) ab_uids
  in
  let ab_finalize = List.rev ab_finalize and ab_drop = List.rev ab_drop in
  let ab_missing =
    List.filter
      (fun (u, _) ->
        List.exists (fun s -> not (Uid_set.mem u (info_of s).a_ab_uids)) c.c_sites)
      ab_finalize
    |> List.map fst
  in
  let final_tbl = Hashtbl.create (List.length ab_finalize) in
  List.iter (fun (u, p) -> Hashtbl.replace final_tbl u p) ab_finalize;
  {
    r_missing_cb = Uid_set.elements missing_cb;
    r_ab_finalize = ab_finalize;
    r_final = final_tbl;
    r_ab_drop = ab_drop;
    r_ab_missing = ab_missing;
  }

(* Origin-site self-delivery happens outside [drain_group] (the
   primitive looks instantaneous to the sender); give it the same
   [Deliver] event, but only when the site actually hosts members. *)
let emit_local_deliver t g uid =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Proto && local_members t g <> [] then
    Obs_tracer.emit tr
      (Obs_event.Deliver { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq })

(* ==================================================================
   The protocol core: one mutually recursive cluster.
   ================================================================== *)

let rec kill_proc p =
  let t = p.rt in
  if p.palive then begin
    p.palive <- false;
    Sched.kill p.sched;
    Hashtbl.remove t.procs p.addr.Addr.idx;
    if t.running then begin
      Trace.emitf t.tracer ~category:"proc" "killed %a" Addr.pp_proc p.addr;
      (* The site monitor detects a local crash immediately (Sec 2.1):
         fail outstanding reply obligations and report the death to
         every group the process belonged to. *)
      fail_obligations_of t p;
      List.iter
        (fun gid_int ->
          match Hashtbl.find_opt t.groups gid_int with
          | None -> ()
          | Some g ->
            if View.is_member g.view p.addr then
              (* The site monitor saw the crash directly: this death is
                 [certain], not a suspicion — it never counts against the
                 partition quorum. *)
              route_event t g (Ev_fail (p.addr, true)))
        p.memberships
    end
  end

and fail_obligations_of t p =
  match Hashtbl.find_opt t.obligations p.addr.Addr.idx with
  | None -> ()
  | Some obs ->
    Hashtbl.remove t.obligations p.addr.Addr.idx;
    List.iter
      (fun (session, (caller : Addr.proc)) ->
        if caller.Addr.site = t.my_site then note_failed_responder t ~session ~responder:p.addr
        else send_frame t ~dst:caller.Addr.site (Proto.Obligation_failed { session; responder = p.addr }))
      obs

(* --- delivery to local processes --- *)

and dispatch_to_proc t p body =
  if proc_alive p then begin
    (* Per-recipient copy: processes have disjoint address spaces, so a
       recipient must never observe another's mutations.  [Message.copy]
       is copy-on-write — this is O(1) unless the recipient writes. *)
    let body = Message.copy body in
    if filters_pass p.filters body then begin
      if Message.mem body f_pg_kill then kill_proc p
      else
        match Message.entry body with
        | None -> ()
        | Some e -> (
          match Hashtbl.find_opt p.entries e with
          | Some handler -> Sched.spawn p.sched (fun () -> handler body)
          | None ->
            Trace.emitf t.tracer ~category:"proc" "no entry %d at %a" e Addr.pp_proc p.addr)
    end
  end

(* Deliver one group-multicast body to every local member (after one
   intra-site hop), registering reply obligations first. *)
and deliver_to_members t _g body ~members =
  let want = Option.value ~default:0 (Message.get_int body f_want) in
  List.iter
    (fun (m : Addr.proc) ->
      match find_proc t m with
      | None ->
        (* The member died between the send and this delivery: a caller
           waiting on it must not hang. *)
        if want <> 0 then begin
          match Message.session body, Message.sender body with
          | Some session, Some caller ->
            if caller.Addr.site = t.my_site then note_failed_responder t ~session ~responder:m
            else
              send_frame t ~dst:caller.Addr.site
                (Proto.Obligation_failed { session; responder = m })
          | _ -> ()
        end
      | Some p ->
        if want <> 0 then register_obligation t ~responder:p ~body;
        let intra = Backend.intra_site_us t.fab.fbk in
        ignore
          (Backend.schedule t.bk ~delay:intra (fun () ->
               if t.running then dispatch_to_proc t p body)))
    members

and register_obligation t ~responder ~body =
  match Message.session body, Message.sender body with
  | Some session, Some caller ->
    let idx = responder.addr.Addr.idx in
    let cur = Option.value ~default:[] (Hashtbl.find_opt t.obligations idx) in
    Hashtbl.replace t.obligations idx ((session, caller) :: cur)
  | _ -> ()

and clear_obligation t ~responder ~session =
  let idx = responder.Addr.idx in
  match Hashtbl.find_opt t.obligations idx with
  | None -> ()
  | Some obs ->
    Hashtbl.replace t.obligations idx (List.filter (fun (s, _) -> s <> session) obs)

(* Deliver everything the engines can release, acknowledge remote
   origins, and mark own-origin local deliveries. *)
and drain_group t g =
  let deliver uid body =
    Trace.emitf t.tracer ~category:"deliver" "g%d %a at s%d" (gi g.gid) pp_uid uid t.my_site;
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Deliver
            { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
    deliver_to_members t g body ~members:(local_members t g);
    if uid.usite = t.my_site then note_local_origin_delivered t uid
    else send_frame t ~dst:uid.usite (Proto.Deliver_ack { group = g.gid; uid })
  in
  List.iter (fun (uid, body) -> deliver uid body) (Causal.drain g.causal);
  List.iter
    (fun (uid, prio, body) ->
      (* Retain the finalized ABCAST for stabilization until stable,
         under its true final priority: if a view change wedges the
         group before this message stabilizes, the wedge ack quotes this
         record, and the flush must re-commit it at the same priority at
         every member that has not delivered it yet. *)
      (match Uid_map.find_opt uid g.store with
      | Some _ -> ()
      | None -> g.store <- Uid_map.add uid (Proto.Sab { uid; prio; body }) g.store);
      deliver uid body)
    (Total.drain g.total)

and note_local_origin_delivered t uid =
  (* Origin-site local delivery completes; remote acks may still be
     pending. *)
  match Hashtbl.find_opt t.unstables uid with
  | None -> ()
  | Some u -> check_stable t uid u

and on_deliver_ack t ~src uid =
  match Hashtbl.find_opt t.unstables uid with
  | None -> ()
  | Some u ->
    u.remaining <- List.filter (fun s -> s <> src) u.remaining;
    check_stable t uid u

and check_stable t uid u =
  if u.remaining = [] then begin
    Hashtbl.remove t.unstables uid;
    grp_index_remove t.unstable_by_group (gi u.u_group) uid;
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq }));
    List.iter (fun dst -> send_frame t ~dst (Proto.Stable { group = u.u_group; uid })) u.u_dests;
    (match group_of t u.u_group with
    | Some g ->
      note_stabilized t g uid;
      g.store <- Uid_map.remove uid g.store
    | None -> ());
    match u.u_owner with
    | Some p when p.palive ->
      p.outstanding <- Uid_set.remove uid p.outstanding;
      maybe_wake_flushers p
    | Some _ | None -> ()
  end

and on_stable t gid uid =
  match group_of t gid with
  | Some g ->
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then begin
       Obs_tracer.emit tr
         (Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
       Obs_tracer.emit tr
         (Obs_event.Stable_advance { site = t.my_site; origin = uid.usite; upto = uid.useq })
     end);
    note_stabilized t g uid;
    g.store <- Uid_map.remove uid g.store
  | None -> ()

(* A stable multicast's dedup record can be garbage collected: every
   destination delivered it, and (per-channel FIFO + per-sender
   delivery monotonicity within each engine) everything earlier from
   the same origin site was delivered everywhere first.  Advance the
   watermark of the engine that carried it — the protocol is read off
   the retransmission-store entry, because advancing the {e other}
   engine's watermark could cover a uid of that protocol still in
   flight. *)
and note_stabilized t g uid =
  match Uid_map.find_opt uid g.store with
  | Some (Proto.Scb _) ->
    Causal.stabilized g.causal uid;
    let tr = Trace.obs t.tracer in
    if Obs_tracer.wants tr Obs_event.Proto then
      Obs_tracer.emit tr (Obs_event.Gc_reclaim { site = t.my_site; n = 1 })
  | Some (Proto.Sab _) ->
    Total.stabilized g.total uid;
    let tr = Trace.obs t.tracer in
    if Obs_tracer.wants tr Obs_event.Proto then
      Obs_tracer.emit tr (Obs_event.Gc_reclaim { site = t.my_site; n = 1 })
  | None -> ()

(* --- sessions (reply collection) --- *)

and open_session t ~want ~responders ~relay_site =
  let sess =
    {
      sess_id = fresh_session t;
      swant = want;
      replies = [];
      nulls = [];
      sfailed = [];
      responders;
      relay_site;
      done_ivar = Ivar.create ();
      mon_sites = [];
    }
  in
  Hashtbl.replace t.sessions sess.sess_id sess;
  (* Watch the sites hosting responders (and the relay): a site crash
     means those responders will never reply. *)
  let watch =
    (match responders with
    | Some rs -> List.map (fun (r : Addr.proc) -> r.Addr.site) rs
    | None -> [])
    @ (match relay_site with Some s -> [ s ] | None -> [])
  in
  let watch = List.sort_uniq compare (List.filter (fun s -> s <> t.my_site) watch) in
  List.iter (fun s -> mon_acquire t s) watch;
  sess.mon_sites <- watch;
  sess

and close_session t sess outcome =
  if Hashtbl.mem t.sessions sess.sess_id then begin
    Hashtbl.remove t.sessions sess.sess_id;
    List.iter (fun s -> mon_release t s) sess.mon_sites;
    Ivar.fill sess.done_ivar outcome
  end

and note_responders t sess responders =
  if sess.responders = None then begin
    sess.responders <- Some responders;
    let monitored = Int_set.of_list sess.mon_sites in
    let extra =
      List.sort_uniq compare
        (List.filter_map
           (fun (r : Addr.proc) ->
             if r.Addr.site <> t.my_site && not (Int_set.mem r.Addr.site monitored) then
               Some r.Addr.site
             else None)
           responders)
    in
    List.iter (fun s -> mon_acquire t s) extra;
    sess.mon_sites <- extra @ sess.mon_sites;
    check_session t sess
  end

and note_reply t sess ~responder ~body ~null =
  let already p = Addr.equal_proc p responder in
  if
    (not (List.exists (fun (p, _) -> already p) sess.replies))
    && not (List.exists already sess.nulls)
  then begin
    if null then sess.nulls <- responder :: sess.nulls
    else sess.replies <- (responder, body) :: sess.replies;
    check_session t sess
  end

and note_failed_responder t ~session ~responder =
  match Hashtbl.find_opt t.sessions session with
  | None -> ()
  | Some sess ->
    if not (List.exists (Addr.equal_proc responder) sess.sfailed) then begin
      sess.sfailed <- responder :: sess.sfailed;
      check_session t sess
    end

and session_site_down t s =
  let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
  List.iter
    (fun sess ->
      (match sess.responders with
      | Some rs ->
        List.iter
          (fun (r : Addr.proc) ->
            if r.Addr.site = s then note_failed_responder t ~session:sess.sess_id ~responder:r)
          rs
      | None -> ());
      (* Relay died before telling us who the responders are: the send
         may or may not have happened; report failure so the caller can
         retry (paper Sec 5 step 2 does exactly this). *)
      if sess.responders = None && sess.relay_site = Some s then close_session t sess All_failed)
    open_sessions

and check_session t sess =
  match sess.responders with
  | None ->
    (* Without the authoritative responder list we can still satisfy a
       fixed-count request. *)
    (match sess.swant with
    | Wait_n n when List.length sess.replies >= n ->
      close_session t sess (Replies (List.rev sess.replies))
    | Wait_n _ | Wait_all | No_reply -> ())
  | Some responders ->
    let accounted (r : Addr.proc) =
      List.exists (fun (p, _) -> Addr.equal_proc p r) sess.replies
      || List.exists (Addr.equal_proc r) sess.nulls
      || List.exists (Addr.equal_proc r) sess.sfailed
    in
    let outstanding = List.filter (fun r -> not (accounted r)) responders in
    let n_replies = List.length sess.replies in
    let finishable =
      match sess.swant with
      | No_reply -> true
      | Wait_n n -> n_replies >= n || outstanding = []
      | Wait_all -> outstanding = []
    in
    if finishable then
      if n_replies = 0 && sess.nulls = [] && responders <> [] && List.length sess.sfailed = List.length responders
      then close_session t sess All_failed
      else close_session t sess (Replies (List.rev sess.replies))

(* --- multicast origination (this site hosts a member, or is relaying
       on behalf of a remote client) --- *)

and origin_multicast t g mode ~owner body =
  let sender_failed =
    match Message.sender body with
    | Some s -> List.exists (Addr.equal_proc s) g.failed_procs
    | None -> false
  in
  if sender_failed then init_done owner
  else if g.minority <> None && t.cfg.minority_policy = Reject then
    (* Minority component under the reject policy: fail fast (the owner
       fiber sees [Partitioned] at the API layer; relays just drop)
       instead of buffering behind a wedge that may never lift. *)
    init_done owner
  else if g.wedge <> None then
    (* Wedged: the group is between views; queue the operation and rerun
       it once the new view is installed. *)
    g.blocked_sends <- (owner, mode, body) :: g.blocked_sends
  else
    match mode with
    | Cbcast ->
      origin_cbcast t g ~owner body;
      init_done owner
    | Abcast -> enqueue_abcast t g ~owner body
    | Gbcast ->
      origin_gbcast t g body;
      init_done owner

and maybe_wake_flushers p =
  if p.pending_inits = 0 && Uid_set.is_empty p.outstanding then Condition.broadcast p.flushers

and init_done owner =
  match owner with
  | Some p ->
    if p.pending_inits > 0 then p.pending_inits <- p.pending_inits - 1;
    maybe_wake_flushers p
  | None -> ()

and mark_unstable t g uid ~remote ~owner =
  if remote <> [] then begin
    Hashtbl.replace t.unstables uid
      { remaining = remote; u_owner = owner; u_group = g.gid; u_dests = remote };
    grp_index_add t.unstable_by_group (gi g.gid) uid;
    match owner with
    | Some p when p.palive -> p.outstanding <- Uid_set.add uid p.outstanding
    | Some _ | None -> ()
  end

and origin_cbcast t g ~owner body =
  let uid = fresh_uid t in
  (* Rank used for the timestamp: the sending member if local, else the
     oldest local member (relay). *)
  let rank =
    match Message.sender body with
    | Some s when View.is_member g.view s -> View.rank g.view s
    | _ -> (
      match local_members t g with
      | m :: _ -> View.rank g.view m
      | [] -> -1)
  in
  let vt =
    if rank >= 0 then Some (Vsync_util.Vclock.to_list (Causal.stamp g.causal ~rank)) else None
  in
  let remote = remote_member_sites t g in
  Trace.emitf t.tracer ~category:"cbcast" "send %a g%d" pp_uid uid (gi g.gid);
  (let tr = Trace.obs t.tracer in
   if Obs_tracer.wants tr Obs_event.Proto then
     Obs_tracer.emit tr
       (Obs_event.Originate
          { site = t.my_site; proto = "cbcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
  if remote = [] then begin
    (* Purely local group: immediately stable. *)
    emit_local_deliver t g uid;
    deliver_to_members t g body ~members:(local_members t g)
  end
  else begin
    g.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; body }) g.store;
    Causal.note_sent g.causal uid;
    mark_unstable t g uid ~remote ~owner;
    List.iter
      (fun dst ->
        send_frame t ~dst
          (Proto.Cb_data { group = g.gid; view_id = g.view.View.view_id; uid; rank; vt; body }))
      remote;
    (* Self-delivery: immediate — the primitive looks instantaneous to
       the sender, which is the heart of the asynchronous style. *)
    emit_local_deliver t g uid;
    deliver_to_members t g body ~members:(local_members t g)
  end

(* ABCAST origination is pipelined: a bounded window of phase-1 rounds
   may be outstanding per group, the rest queue.  When commits complete
   they free slots, and because a coalesced packet can complete several
   commits in one engine event, the freed slots dispatch as a burst
   whose Ab_data frames coalesce — under load the pipeline feeds its own
   batching.  [init_done] (which lets [flush] proceed) runs only when
   the multicast is actually originated, so flush semantics still cover
   queued sends. *)
and enqueue_abcast t g ~owner body =
  Queue.push (owner, body) g.ab_queue;
  dispatch_abcasts t g

(* Queued ABCASTs die with the group copy; release any flusher waiting
   on their origination. *)
and drop_ab_queue g =
  Queue.iter (fun (owner, _) -> init_done owner) g.ab_queue;
  Queue.clear g.ab_queue

and dispatch_abcasts t g =
  (* Burst dispatch.  Rounds launched in the same engine event share
     packets all the way around the protocol: their Ab_data frames
     coalesce per destination, so each member answers the whole burst
     with its prios in one packet (one receive interrupt here instead
     of one per round), and the commit fan-out coalesces onto the next
     burst's phase-1 frames.  Releasing one round per freed slot would
     keep the pipeline perfectly smooth and nothing would ever share a
     packet — so while the pipeline is busy, rounds launch in bursts
     of at least half the window: a burst goes out when that many
     slots are free and the backlog can fill them (two half-window
     bursts then overlap, so the originator never idles waiting for a
     round trip), or when the pipeline drains entirely. *)
  let window = t.cfg.ab_window in
  let free = window - g.ab_inflight in
  let quantum = (window + 1) / 2 in
  if
    g.wedge = None
    && (not (Queue.is_empty g.ab_queue))
    && (g.ab_inflight = 0 || (free >= quantum && Queue.length g.ab_queue >= quantum))
  then begin
    while (not (Queue.is_empty g.ab_queue)) && g.ab_inflight < window do
      let owner, body = Queue.pop g.ab_queue in
      origin_abcast t g ~owner body;
      init_done owner
    done;
    (* Queue space freed: blocked [bcast_wait] originators may retry. *)
    Condition.broadcast t.admission
  end

and origin_abcast t g ~owner body =
  let uid = fresh_uid t in
  let remote = remote_member_sites t g in
  Trace.emitf t.tracer ~category:"abcast" "send %a g%d" pp_uid uid (gi g.gid);
  (let tr = Trace.obs t.tracer in
   if Obs_tracer.wants tr Obs_event.Proto then
     Obs_tracer.emit tr
       (Obs_event.Originate
          { site = t.my_site; proto = "abcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
  let my_prio = Total.intake g.total ~uid body in
  mark_unstable t g uid ~remote ~owner;
  if remote = [] then begin
    Total.commit g.total ~uid my_prio;
    drain_group t g;
    (* Purely local group: immediately stable.  GC the stabilization
       copy and the dedup record [drain_group] just created (no
       [Stable] flow ever runs for a local-only round). *)
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq }));
    note_stabilized t g uid;
    g.store <- Uid_map.remove uid g.store
  end
  else begin
    g.ab_inflight <- g.ab_inflight + 1;
    Hashtbl.replace t.ab_collects uid { ac_group = g.gid; ac_expect = remote; ac_max = my_prio };
    grp_index_add t.collects_by_group (gi g.gid) uid;
    List.iter
      (fun dst ->
        send_frame t ~dst (Proto.Ab_data { group = g.gid; view_id = g.view.View.view_id; uid; body }))
      remote
  end

and origin_gbcast t g body =
  let uid = fresh_uid t in
  Trace.emitf t.tracer ~category:"gbcast" "request %a g%d" pp_uid uid (gi g.gid);
  trace_proto t (fun () ->
      Obs_event.Originate
        { site = t.my_site; proto = "gbcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq });
  g.gb_outstanding <- (uid, body) :: g.gb_outstanding;
  route_event t g (Ev_gb (uid, body))

and on_ab_prio t ~src uid prio =
  match Hashtbl.find_opt t.ab_collects uid with
  | None -> () (* collection finished or superseded by a flush *)
  | Some col -> (
    match group_of t col.ac_group with
    | None ->
      Hashtbl.remove t.ab_collects uid;
      grp_index_remove t.collects_by_group (gi col.ac_group) uid
    | Some g ->
      if g.wedge <> None then () (* the flush coordinator will finalize *)
      else begin
        (let tr = Trace.obs t.tracer in
         if Obs_tracer.wants tr Obs_event.Proto then
           Obs_tracer.emit tr
             (Obs_event.Ab_vote
                { site = t.my_site; voter = src; usite = uid.usite; useq = uid.useq; prio = fst prio }));
        col.ac_max <- prio_max col.ac_max prio;
        (* The proposal's sender is implicit: we just count down. *)
        (match col.ac_expect with
        | [] -> ()
        | _ :: _ ->
          col.ac_expect <- List.tl col.ac_expect;
          if col.ac_expect = [] then begin
            Hashtbl.remove t.ab_collects uid;
            grp_index_remove t.collects_by_group (gi col.ac_group) uid;
            g.ab_inflight <- max 0 (g.ab_inflight - 1);
            let final = col.ac_max in
            Trace.emitf t.tracer ~category:"abcast" "commit %a %a" pp_uid uid pp_prio final;
            (let tr = Trace.obs t.tracer in
             if Obs_tracer.wants tr Obs_event.Proto then
               Obs_tracer.emit tr
                 (Obs_event.Ab_commit
                    { site = t.my_site; usite = uid.usite; useq = uid.useq; prio = fst final }));
            List.iter
              (fun dst ->
                send_frame t ~dst
                  (Proto.Ab_commit { group = g.gid; view_id = g.view.View.view_id; uid; prio = final }))
              (remote_member_sites t g);
            Total.commit g.total ~uid final;
            drain_group t g;
            (* The freed slot (and any others freed by this same packet)
               dispatches the next queued round(s). *)
            dispatch_abcasts t g
          end)
      end)

(* Route a membership/GBCAST event to the acting coordinator. *)
and route_event t g ev =
  match g.minority, ev with
  | Some _, Ev_join (p, _) ->
    (* A minority component must not grow itself back over quorum with
       newcomers: refuse immediately so the joiner retries against the
       primary partition once the split heals. *)
    let reason = "partitioned: minority component" in
    if p.Addr.site = t.my_site then (
      match jw_take t ~gid_int:(gi g.gid) ~idx:p.Addr.idx with
      | Some iv -> Ivar.fill iv (Error reason)
      | None -> ())
    else send_frame t ~dst:p.Addr.site (Proto.Join_refused { group = g.gid; joiner = p; reason })
  | _ -> (
    match acting_coord_site g with
    | Some c when c = t.my_site ->
      enqueue_event t g ev;
      maybe_start_change t g
    | Some c ->
      let frame =
        match ev with
        | Ev_join (p, cred) -> Proto.Join_req { group = g.gid; joiner = p; credentials = cred }
        | Ev_leave p -> Proto.Leave_req { group = g.gid; who = p }
        | Ev_fail (p, certain) -> Proto.Proc_failed { group = g.gid; who = p; certain }
        | Ev_gb (uid, body) -> Proto.Gb_req { group = g.gid; uid; body }
      in
      send_frame t ~dst:c frame
    | None ->
      (* Every member site is suspected: there is no coordinator to run
         the change.  Dropping the event here silently stalled the
         group; instead park it and re-probe — either a suspicion
         clears (and routing finds the new coordinator) or the copy is
         eventually torn down. *)
      Trace.emitf t.tracer ~category:"view" "no live coordinator for g%d" (gi g.gid);
      trace_note t (fun () ->
          Obs_event.Error_event
            {
              site = t.my_site;
              what = "no-live-coordinator";
              detail = Printf.sprintf "g%d" (gi g.gid);
            });
      enqueue_event t g ev;
      let gid_int = gi g.gid in
      ignore
        (Backend.schedule t.bk ~delay:500_000 (fun () ->
             if t.running then
               match Hashtbl.find_opt t.groups gid_int with
               | Some g' when g' == g ->
                 if not (Deque.is_empty g.pending_events) then begin
                   let evs = Deque.to_list g.pending_events in
                   g.pending_events <- Deque.empty;
                   List.iter (fun ev -> route_event t g ev) evs
                 end
               | Some _ | None -> ())))

and enqueue_event t g ev =
  let in_flight pred =
    Deque.exists pred g.pending_events
    || match g.change with Some c -> List.exists pred c.c_batch | None -> false
  in
  let dup =
    match ev with
    | Ev_fail (p, certain) ->
      (* A certain death upgrades a queued suspicion of the same process
         (certainty matters to the quorum rule), so only an equally- or
         more-certain record counts as a duplicate. *)
      in_flight (function
        | Ev_fail (q, c') -> Addr.equal_proc p q && (c' || not certain)
        | Ev_leave q -> Addr.equal_proc p q
        | Ev_join _ | Ev_gb _ -> false)
    | Ev_leave p ->
      in_flight (function
        | Ev_fail (q, _) | Ev_leave q -> Addr.equal_proc p q
        | Ev_join _ | Ev_gb _ -> false)
    | Ev_join (p, _) ->
      in_flight (function Ev_join (q, _) -> Addr.equal_proc p q | _ -> false)
    | Ev_gb (u, _) ->
      (* Re-routed copies of an undelivered GBCAST (see
         [gb_outstanding]) collapse onto the queued original. *)
      in_flight (function Ev_gb (u2, _) -> u2 = u | _ -> false)
  in
  ignore t;
  if not dup then g.pending_events <- Deque.push_back g.pending_events ev

(* --- the view-change / GBCAST flush --- *)

and maybe_start_change t g =
  if
    g.change = None
    && g.minority = None
    && (not (Deque.is_empty g.pending_events))
    && i_am_coord t g
  then start_change t g

and start_change t g =
  let batch = Deque.to_list g.pending_events in
  g.pending_events <- Deque.empty;
  (* Collapse duplicate failure records of one process, keeping the
     strongest certainty: a local kill may race an earlier suspicion of
     the same process, and certainty matters to the quorum rule. *)
  let batch =
    List.rev
      (List.fold_left
         (fun acc ev ->
           match ev with
           | Ev_fail (p, c) ->
             let merged = ref false in
             let acc =
               List.map
                 (function
                   | Ev_fail (q, c') when Addr.equal_proc p q ->
                     merged := true;
                     Ev_fail (q, c' || c)
                   | e -> e)
                 acc
             in
             if !merged then acc else ev :: acc
           | e -> e :: acc)
         [] batch)
  in
  (* A suspicion of a member hosted HERE that is demonstrably alive is
     stale by construction (a heal delivered someone's partition-era
     report after the fact): processing it would evict a live local
     member — or, worse, make this coordinator count itself dead and
     wedge a healthy component.  Certain reports are never dropped. *)
  let batch =
    List.filter
      (function
        | Ev_fail (p, false) when p.Addr.site = t.my_site -> find_proc t p = None
        | _ -> true)
      batch
  in
  (* Primary-partition rule: the component this coordinator can still
     reach may run the change (and keep delivering in the new view) only
     if it retains a quorum of the current view.  Deaths witnessed
     directly ([certain]) and voluntary leaves shrink the quorum base;
     mere suspicions do not — suspicions are exactly what a partition
     forges on both sides at once. *)
  let certain =
    List.filter_map
      (function Ev_fail (p, true) | Ev_leave p -> Some p | _ -> None)
      batch
  in
  let gone =
    List.filter_map (function Ev_fail (p, _) | Ev_leave p -> Some p | _ -> None) batch
  in
  (* The surviving component is the members this batch keeps MINUS any
     member whose site we currently suspect.  The second clause matters
     when eviction reports drip in one at a time (a report routed to an
     unreachable coordinator is lost): without it an isolated site could
     evict the far side one member per flush, each step retaining a
     "majority" of the freshly shrunk view, and walk itself into a
     unilateral view — split-brain by induction. *)
  let survivors =
    List.filter
      (fun (m : Addr.proc) ->
        (not (List.exists (Addr.equal_proc m) gone))
        && (m.Addr.site = t.my_site || not (Int_set.mem m.Addr.site g.suspects)))
      g.view.View.members
  in
  if not (View.quorum_met ~prev:g.view ~survivors ~certain) then
    enter_minority t g ~batch ~survivors ~certain
  else begin
    let attempt = g.last_attempt + 1 in
    g.last_attempt <- attempt;
    let live_sites = List.filter (fun s -> not (Int_set.mem s g.suspects)) (View.sites g.view) in
    let sites = List.sort_uniq compare (t.my_site :: live_sites) in
    g.change <-
      Some
        { c_attempt = attempt; c_batch = batch; c_sites = sites;
          c_acks = Hashtbl.create (List.length sites); c_fetch_wait = [];
          c_fetched = []; c_committed = false };
    Trace.emitf t.tracer ~category:"view" "start change g%d v%d a%d (%d events)" (gi g.gid)
      g.view.View.view_id attempt (List.length batch);
    trace_proto t (fun () ->
        Obs_event.Flush
          { site = t.my_site; group = gi g.gid; view_id = g.view.View.view_id; attempt });
    List.iter
      (fun dst ->
        send_frame t ~dst
          (Proto.Wedge
             { group = g.gid; view_id = g.view.View.view_id; attempt; coord_site = t.my_site;
               coord_epoch = Endpoint.epoch (endpoint t) }))
      sites;
    wedge_retry t g ~attempt
  end

(* A flush can starve on participants that could not ack the original
   Wedge: a site still catching up on an OLDER view (it held a
   higher-precedence wedge there and fenced our commit predecessor)
   ignores a Wedge for a view ahead of its own, then adopts that view
   via a rebroadcast commit — at which point it would happily ack, but
   the Wedge is long gone.  Re-send the Wedge to the participants whose
   acks are still missing, until the change completes, aborts, or moves
   to a new attempt.  Re-wedging an already-wedged site is idempotent
   (same attempt/coordinator falls through to a duplicate ack, which
   [on_wedge_ack] drops). *)
and wedge_retry t g ~attempt =
  let gid_int = gi g.gid in
  ignore
    (Backend.schedule t.bk ~delay:1_000_000 (fun () ->
         if t.running then
           match Hashtbl.find_opt t.groups gid_int with
           | Some g' when g' == g -> (
             match g.change with
             | Some c when c.c_attempt = attempt && not c.c_committed ->
               let missing =
                 List.filter
                   (fun s -> s <> t.my_site && not (Hashtbl.mem c.c_acks s))
                   c.c_sites
               in
               if missing <> [] then begin
                 List.iter
                   (fun dst ->
                     send_frame t ~dst
                       (Proto.Wedge
                          { group = g.gid; view_id = g.view.View.view_id; attempt;
                            coord_site = t.my_site;
                            coord_epoch = Endpoint.epoch (endpoint t) }))
                   missing;
                 wedge_retry t g ~attempt
               end
             | Some _ | None -> ())
           | Some _ | None -> ()))

(* --- the minority side of a partition ---

   The coordinator of a component that lost its quorum must not install
   views: doing so on both sides of a split is exactly split-brain.
   Instead it wedges its whole component (blocking origination
   everywhere in it, via the ordinary wedge machinery) and probes the
   sites it suspects.  Three ways out: a probe reply shows a suspected
   site is reachable at our view (false alarm / heal before eviction) —
   fold it back in and rerun the change; a reply shows the primary
   partition has moved to a newer view without us — discard this dead
   copy so local members can rejoin fresh through state transfer; or
   the probes run dry for long enough that the group is assumed
   dissolved. *)

and enter_minority t g ~batch ~survivors ~certain =
  let attempt = g.last_attempt + 1 in
  g.last_attempt <- attempt;
  g.change <- None;
  let m = { m_attempt = attempt; m_batch = batch; m_rounds = 0 } in
  g.minority <- Some m;
  let base =
    List.filter
      (fun mem -> not (List.exists (Addr.equal_proc mem) certain))
      g.view.View.members
  in
  let needed = (List.length base / 2) + 1 in
  Trace.emitf t.tracer ~category:"view" "minority wedge g%d v%d: %d of %d survive, need %d"
    (gi g.gid) g.view.View.view_id (List.length survivors) (List.length base) needed;
  trace_partition t (fun () ->
      Obs_event.Partition_wedge
        {
          site = t.my_site;
          group = gi g.gid;
          view_id = g.view.View.view_id;
          survivors = List.length survivors;
          needed;
        });
  (* Wedge every reachable component site (self included) so that
     origination blocks component-wide, not just here. *)
  let live_sites = List.filter (fun s -> not (Int_set.mem s g.suspects)) (View.sites g.view) in
  let sites = List.sort_uniq compare (t.my_site :: live_sites) in
  List.iter
    (fun dst ->
      send_frame t ~dst
        (Proto.Wedge
           { group = g.gid; view_id = g.view.View.view_id; attempt; coord_site = t.my_site;
             coord_epoch = Endpoint.epoch (endpoint t) }))
    sites;
  schedule_minority_probe t g m

and schedule_minority_probe t g m =
  let gid_int = gi g.gid in
  ignore
    (Backend.schedule t.bk ~delay:500_000 (fun () ->
         if t.running then
           match Hashtbl.find_opt t.groups gid_int with
           | Some g' when g' == g -> (
             match g.minority with
             | Some m' when m' == m ->
               m.m_rounds <- m.m_rounds + 1;
               if m.m_rounds > 40 then
                 (* Nothing answered for ~20s of probing: the rest of the
                    group is gone (or we are irrecoverably cut off).
                    Treat this copy as dissolved rather than wedging
                    forever. *)
                 partition_teardown t g ~new_view_id:(-1)
               else begin
                 trace_partition t (fun () ->
                     Obs_event.Partition_probe
                       { site = t.my_site; group = gid_int; view_id = g.view.View.view_id });
                 (* Probe the suspects AND the sites of members this
                    batch would have evicted: a stale suspicion can put
                    a member in the batch without its site being in
                    [suspects], and probing nobody would let the copy
                    run dry against a perfectly healthy peer. *)
                 let targets =
                   List.fold_left
                     (fun acc ev ->
                       match ev with
                       | Ev_fail (p, false) when p.Addr.site <> t.my_site ->
                         Int_set.add p.Addr.site acc
                       | _ -> acc)
                     g.suspects m.m_batch
                 in
                 Int_set.iter
                   (fun s ->
                     send_frame t ~dst:s
                       (Proto.View_probe
                          { group = g.gid; view_id = g.view.View.view_id; from_site = t.my_site }))
                   targets;
                 schedule_minority_probe t g m
               end
             | Some _ | None -> ())
           | Some _ | None -> ()))

(* A probe reply showed [site] is reachable and still at our view:
   clear the suspicion, drop its members' suspicion-based failure
   records, and rerun the change — if quorum now holds, the ordinary
   flush commits (its commit unwedges the whole component, even with an
   empty event batch); otherwise we re-enter the minority state and
   keep probing. *)
and minority_recover t g m ~site =
  g.suspects <- Int_set.remove site g.suspects;
  let drop_suspicion_of ev =
    match ev with Ev_fail (p, false) -> p.Addr.site <> site | _ -> true
  in
  m.m_batch <- List.filter drop_suspicion_of m.m_batch;
  (* Stale suspicions of the recovered site may also sit in the pending
     queue — e.g. a copy routed here by a peer after it healed — and
     would sail into the next change untouched by the batch filter. *)
  g.pending_events <- Deque.of_list (List.filter drop_suspicion_of (Deque.to_list g.pending_events));
  g.minority <- None;
  trace_partition t (fun () ->
      Obs_event.Partition_exit
        { site = t.my_site; group = gi g.gid; view_id = g.view.View.view_id });
  Trace.emitf t.tracer ~category:"view" "minority recover g%d: site %d reachable" (gi g.gid) site;
  g.pending_events <- Deque.prepend m.m_batch g.pending_events;
  (* Clearing the suspicion may hand coordinatorship back to the
     recovered site: route the parked events instead of running the
     change from here. *)
  if i_am_coord t g then start_change t g
  else begin
    let evs = Deque.to_list g.pending_events in
    g.pending_events <- Deque.empty;
    List.iter (fun ev -> route_event t g ev) evs
  end

(* This site's copy of the group is dead: the primary partition
   installed view [new_view_id] without us (or probing ran dry,
   [new_view_id = -1]).  Discard all group state — unstable minority
   deliveries included — so local members can rejoin as fresh joiners
   and pull current state through the state-transfer toolkit.  Contacts
   and the name directory survive on purpose: they are how the rejoin
   finds the primary. *)
and partition_teardown t g ~new_view_id =
  let gid_int = gi g.gid in
  Trace.emitf t.tracer ~category:"view" "partition evict g%d v%d (primary at v%d)" gid_int
    g.view.View.view_id new_view_id;
  trace_partition t (fun () ->
      Obs_event.Partition_evict
        { site = t.my_site; group = gid_int; view_id = g.view.View.view_id; new_view_id });
  (* Let fellow component sites (which are wedged but hold no minority
     record) learn the verdict instead of wedging forever: a probe
     reply advertising a view beyond theirs makes them discard their
     copy too.  On a probing give-up there is no known primary view, so
     advertise the next id — the copy is dead either way. *)
  (match g.minority with
  | Some _ ->
    let verdict = if new_view_id >= 0 then new_view_id else g.view.View.view_id + 1 in
    List.iter
      (fun s ->
        if s <> t.my_site && not (Int_set.mem s g.suspects) then
          send_frame t ~dst:s (Proto.View_probe_reply { group = g.gid; view_id = verdict }))
      (View.sites g.view)
  | None -> ());
  g.minority <- None;
  (* Release every waiter parked on this copy. *)
  List.iter (fun (owner, _, _) -> init_done owner) (List.rev g.blocked_sends);
  g.blocked_sends <- [];
  drop_ab_queue g;
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
  List.iter
    (fun u -> Hashtbl.remove t.ab_collects u)
    (grp_index_take t.collects_by_group gid_int);
  Hashtbl.remove t.held gid_int;
  if jw_any t gid_int then
    Hashtbl.iter
      (fun (gid', idx) _ ->
        if gid' = gid_int then
          match jw_take t ~gid_int ~idx with
          | Some iv -> Ivar.fill iv (Error "partitioned: evicted from primary partition")
          | None -> ())
      (Hashtbl.copy t.join_waiters);
  Hashtbl.iter
    (fun (gid', idx) iv ->
      if gid' = gid_int then begin
        Hashtbl.remove t.leave_waiters (gid', idx);
        Ivar.fill iv ()
      end)
    (Hashtbl.copy t.leave_waiters);
  Hashtbl.iter
    (fun _ pr -> pr.memberships <- List.filter (fun g' -> g' <> gid_int) pr.memberships)
    t.procs;
  List.iter (fun s -> mon_release t s) (View.sites g.view);
  Hashtbl.remove t.groups gid_int;
  (* The local copy is gone, so this site must stop advertising itself
     as a contact for the group.  During the partition the failure
     detector purged the (unreachable) primary sites from the hints, so
     what's left typically points right back here — a rejoin that
     resolved the name locally would send its Join_req to this site and
     be refused.  Keep any surviving primary-side hints; if none
     remain, drop the entry entirely so the next lookup broadcasts a
     fresh directory query. *)
  (match Hashtbl.find_opt t.contacts gid_int with
  | Some sites -> (
    match List.filter (( <> ) t.my_site) sites with
    | [] -> Hashtbl.remove t.contacts gid_int
    | remaining -> Hashtbl.replace t.contacts gid_int remaining)
  | None -> ());
  dir_drop_site t ~gid_int ~site:t.my_site;
  (* Originators parked in [bcast_wait] on this copy re-check admission:
     a group with no local copy is never backpressured. *)
  Condition.broadcast t.admission

and restart_change t g =
  (* A failure interrupted the flush: requeue the unprocessed batch and
     run again with fresh suspicions folded in. *)
  (match g.change with
  | Some c when not c.c_committed -> g.pending_events <- Deque.prepend c.c_batch g.pending_events
  | Some _ | None -> ());
  g.change <- None;
  maybe_start_change t g

and on_wedge t ~src g ~view_id ~attempt ~coord_site ~coord_epoch =
  if view_id < g.view.View.view_id then (
    (* We already committed past this view.  Two very different cases
       hide behind that comparison.  If our commit is for this very
       view change (a prior coordinator died after partially fanning it
       out), hand the frame to the new coordinator so it re-broadcasts
       instead of re-deciding.  Otherwise the lineages have diverged —
       e.g. a wedged minority coordinator revived after the primary
       moved several views on — and answering with an empty Wedge_ack
       would let the stale coordinator count us towards ITS quorum and
       commit a rival view under a recycled view id (split brain).
       Refuse with a probe reply: seeing the newer id makes the stale
       copy tear itself down and rejoin fresh. *)
    match g.last_commit with
    | Some (Proto.Commit c as frame) when c.view_id = view_id ->
      send_frame t ~dst:src
        (Proto.Wedge_ack
           {
             group = g.gid;
             view_id;
             attempt;
             from_site = t.my_site;
             cb_known = [];
             ab_report = [];
             ab_counter = 0;
             already_committed = Some frame;
           })
    | Some _ | None ->
      send_frame t ~dst:src
        (Proto.View_probe_reply { group = g.gid; view_id = g.view.View.view_id }))
  else if view_id = g.view.View.view_id then begin
    let dominated =
      match g.wedge with
      | None -> true
      | Some w -> attempt > w.w_attempt || (attempt = w.w_attempt && coord_site <= w.w_coord)
    in
    if dominated then begin
      g.wedge <- Some { w_attempt = attempt; w_coord = coord_site; w_epoch = coord_epoch };
      g.last_attempt <- max g.last_attempt attempt;
      trace_proto t (fun () ->
          Obs_event.Wedge { site = t.my_site; group = gi g.gid; view_id });
      (* If we were coordinating a lower-precedence change, abandon it.
         The batch goes back in the queue, and a delayed re-propose
         covers the case where the winning wedge never turns into a
         commit — e.g. it was a minority component's wedge and its
         owner recovered (abandoning it) rather than committing.
         Without the retry both flushes die and the group stays wedged
         with undrained state until the end of time. *)
      (match g.change with
      | Some c when coord_site <> t.my_site || c.c_attempt <> attempt ->
        if coord_site <> t.my_site then begin
          if not c.c_committed then g.pending_events <- Deque.prepend c.c_batch g.pending_events;
          g.change <- None;
          let gid_int = gi g.gid in
          ignore
            (Backend.schedule t.bk ~delay:500_000 (fun () ->
                 if t.running then
                   match Hashtbl.find_opt t.groups gid_int with
                   | Some g' when g' == g -> maybe_start_change t g
                   | Some _ | None -> ()))
        end
      | Some _ | None -> ());
      let cb_known = Uid_map.fold (fun uid s acc -> match s with Proto.Scb _ -> uid :: acc | Proto.Sab _ -> acc) g.store [] in
      let ab_store =
        Uid_map.fold
          (fun uid s acc ->
            match s with
            | Proto.Sab { prio; _ } ->
              { Proto.ab_uid = uid; ab_prio = prio; ab_committed = true; ab_origin = uid.usite } :: acc
            | Proto.Scb _ -> acc)
          g.store []
      in
      let ab_pending =
        List.map
          (fun (uid, prio, committed, _has_payload) ->
            { Proto.ab_uid = uid; ab_prio = prio; ab_committed = committed; ab_origin = uid.usite })
          (Total.pending g.total)
      in
      send_frame t ~dst:src
        (Proto.Wedge_ack
           {
             group = g.gid;
             view_id;
             attempt;
             from_site = t.my_site;
             cb_known;
             ab_report = ab_store @ ab_pending;
             ab_counter = Total.counter g.total;
             already_committed = None;
           })
    end
    else
      (* A competing wedge that loses to the one we hold.  Refusing
         silently starves the losing coordinator: it keeps waiting for
         our ack while the winner proceeds, and if the winner then
         dies or abandons (a recovered minority wedge), neither flush
         ever finishes.  Echo the winning wedge so the loser adopts
         it, abandons its change, and re-proposes later if the flush
         stalls. *)
      match g.wedge with
      | Some w when src <> t.my_site ->
        send_frame t ~dst:src
          (Proto.Wedge
             {
               group = g.gid;
               view_id;
               attempt = w.w_attempt;
               coord_site = w.w_coord;
               coord_epoch = w.w_epoch;
             })
      | Some _ | None -> ()
  end
  (* view_id > current: the sender installed views we never saw — we
     are on the dead side of a partition; our own probe/commit path
     will discover and handle the eviction. *)

and on_wedge_ack t g ~from_site ~attempt ack =
  match g.change with
  | Some c when c.c_attempt = attempt && List.mem from_site c.c_sites ->
    (* The [c_sites] guard matters: a site excluded from the flush as
       suspected can recover in mid-change and ack the broadcast wedge
       anyway.  The quorum test counts acks, so an out-of-set ack would
       let the flush proceed while a participant is still missing
       (resolve_acks then has no report to consult for it).  The
       recovered site is evicted by this view and rejoins. *)
    if not (Hashtbl.mem c.c_acks from_site) then begin
      Hashtbl.replace c.c_acks from_site ack;
      if Hashtbl.length c.c_acks = List.length c.c_sites then proceed_with_acks t g c
    end
  | Some _ | None -> ()

and proceed_with_acks t g c =
  (* Someone already holds a commit from a dead coordinator for this
     view: re-broadcast it verbatim, requeue our batch, and let the
     commit drive everyone forward. *)
  match
    Hashtbl.fold
      (fun _ a acc -> match acc with Some _ -> acc | None -> a.a_already)
      c.c_acks None
  with
  | Some commit_frame ->
    g.pending_events <- Deque.prepend c.c_batch g.pending_events;
    g.change <- None;
    List.iter (fun dst -> send_frame t ~dst commit_frame) c.c_sites
  | None ->
    (* Which CBCAST / finalized-ABCAST bodies are missing somewhere? *)
    let r = resolve_acks ~gid:(gi g.gid) ~view_id:g.view.View.view_id c in
    let needed = r.r_missing_cb @ r.r_ab_missing in
    (* Who holds each needed body?  Prefer ourselves. *)
    let holder_of u =
      let has s =
        match Hashtbl.find_opt c.c_acks s with
        | Some a -> Uid_set.mem u a.a_cb_known || Uid_set.mem u a.a_ab_uids
        | None ->
          invalid_arg
            (Printf.sprintf
               "Runtime.proceed_with_acks: no wedge ack from site %d (group g%d view %d \
                attempt %d)"
               s (gi g.gid) g.view.View.view_id c.c_attempt)
      in
      if has t.my_site then t.my_site
      else (
        match List.find_opt has c.c_sites with
        | Some s -> s
        | None -> t.my_site (* unreachable: needed means someone has it *))
    in
    let by_holder = Hashtbl.create 4 in
    List.iter
      (fun u ->
        let h = holder_of u in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_holder h) in
        Hashtbl.replace by_holder h (u :: cur))
      needed;
    let local_bodies =
      match Hashtbl.find_opt by_holder t.my_site with
      | Some uids -> List.filter_map (fun u -> body_for t g u) uids
      | None -> []
    in
    Hashtbl.remove by_holder t.my_site;
    c.c_fetched <- local_bodies;
    let remote_holders = Hashtbl.fold (fun s uids acc -> (s, uids) :: acc) by_holder [] in
    if remote_holders = [] then finish_change t g c
    else begin
      c.c_fetch_wait <- List.map fst remote_holders;
      List.iter
        (fun (s, uids) ->
          send_frame t ~dst:s
            (Proto.Fetch { group = g.gid; view_id = g.view.View.view_id; attempt = c.c_attempt; uids }))
        remote_holders
    end

and body_for t g u =
  match Uid_map.find_opt u g.store with
  | Some s -> Some s
  | None -> (
    match Total.payload_of g.total u with
    | Some body -> Some (Proto.Sab { uid = u; prio = (0, 0); body })
    | None ->
      Trace.emitf t.tracer ~category:"view" "body_for: missing %a" pp_uid u;
      None)

and on_fetch t ~src g ~view_id ~attempt uids =
  let bodies = List.filter_map (fun u -> body_for t g u) uids in
  send_frame t ~dst:src
    (Proto.Fetch_reply { group = g.gid; view_id; attempt; from_site = t.my_site; bodies })

and on_fetch_reply t g ~from_site ~attempt bodies =
  match g.change with
  | Some c when c.c_attempt = attempt && List.mem from_site c.c_fetch_wait ->
    c.c_fetch_wait <- List.filter (fun s -> s <> from_site) c.c_fetch_wait;
    c.c_fetched <- c.c_fetched @ bodies;
    if c.c_fetch_wait = [] then finish_change t g c
  | Some _ | None -> ()

and finish_change t g c =
  (* Validate joins, prune stale events, build the new view. *)
  let validate joiner cred =
    match g.join_validator with
    | Some (vp, f) when proc_alive vp -> f joiner cred
    | Some _ | None -> true
  in
  (* A suspicion of a member whose site ACKED this very flush is stale
     by contradiction — the site is answering us right now.  (Typical
     source: a partition-era report delivered after the heal.)  Dropping
     it keeps a provably-present member; if the reporter still cannot
     reach the site it will re-report and a later flush can evict.
     Certain deaths are never second-guessed. *)
  let batch =
    List.filter
      (function
        | Ev_fail (p, false) -> not (Hashtbl.mem c.c_acks p.Addr.site)
        | _ -> true)
      c.c_batch
  in
  (* Members this commit removes, computed over the whole batch up
     front so GBCAST filtering below can consult it regardless of event
     order within the batch. *)
  let removed =
    List.filter_map
      (function
        | (Ev_leave p | Ev_fail (p, _)) when View.is_member g.view p -> Some p
        | _ -> None)
      batch
  in
  (* A queued user GBCAST whose originating site no longer hosts a
     surviving member must not ride this flush: delivering it would
     hand the group a message from a sender AFTER the view change that
     evicted it.  (The grain is per-site because a uid names only the
     originating site; with one group member per site — the only
     configuration the simulator drives — this is exact.) *)
  let origin_survives (uid : Types.uid) =
    List.exists
      (fun (m : Addr.proc) ->
        m.Addr.site = uid.Types.usite && not (List.exists (Addr.equal_proc m) removed))
      g.view.View.members
  in
  let events, gb_bodies, refused =
    List.fold_left
      (fun (evs, gbs, refs) ev ->
        match ev with
        | Ev_join (p, cred) ->
          if View.is_member g.view p then (evs, gbs, refs)
          else if validate p cred then (evs @ [ View.Member_joined p ], gbs, refs)
          else (evs, gbs, refs @ [ p ])
        | Ev_leave p ->
          if View.is_member g.view p then (evs @ [ View.Member_left p ], gbs, refs) else (evs, gbs, refs)
        | Ev_fail (p, _) ->
          if View.is_member g.view p then (evs @ [ View.Member_failed p ], gbs, refs)
          else (evs, gbs, refs)
        | Ev_gb (uid, body) ->
          if origin_survives uid then (evs, gbs @ [ (uid, body) ], refs) else (evs, gbs, refs))
      ([], [], []) batch
  in
  List.iter
    (fun (p : Addr.proc) ->
      send_frame t ~dst:p.Addr.site
        (Proto.Join_refused { group = g.gid; joiner = p; reason = "join refused by validator" }))
    refused;
  (* Recompute finalization data (kept from proceed_with_acks via
     re-derivation: we stored only fetched bodies; recompute the rest). *)
  let commit = build_commit t g c events gb_bodies in
  let dests =
    List.sort_uniq compare
      (c.c_sites
      @ List.filter_map
          (function View.Member_joined (p : Addr.proc) -> Some p.Addr.site | _ -> None)
          events)
  in
  c.c_committed <- true;
  Trace.emitf t.tracer ~category:"view" "commit g%d v%d: %d events %d gb" (gi g.gid)
    g.view.View.view_id (List.length events) (List.length gb_bodies);
  Stats.Counter.incr t.ctrs "prim.gbcast";
  List.iter (fun dst -> send_frame t ~dst commit) dests

and build_commit t g c events gb_bodies =
  (* Re-derive the stabilization decisions from the acks (deterministic
     given [c], so this agrees with what [proceed_with_acks] fetched)
     and pair them with the bodies: local store/engine plus fetched,
     with the Sab priorities fixed to the final values. *)
  let r = resolve_acks ~gid:(gi g.gid) ~view_id:g.view.View.view_id c in
  let final_of u =
    match Hashtbl.find_opt r.r_final u with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf
           "Runtime.build_commit: no final priority for uid %d.%d (group g%d view %d attempt \
            %d; %d finalized)"
           u.usite u.useq (gi g.gid) g.view.View.view_id c.c_attempt
           (List.length r.r_ab_finalize))
  in
  let fetched = c.c_fetched in
  let lookup u =
    match List.find_opt (fun s -> uid_equal (Proto.stored_uid s) u) fetched with
    | Some s -> Some s
    | None -> body_for t g u
  in
  let stab_cb = List.filter_map lookup r.r_missing_cb in
  let stab_ab =
    List.filter_map
      (fun u ->
        match lookup u with
        | Some (Proto.Sab { uid; body; _ }) -> Some (Proto.Sab { uid; prio = final_of uid; body })
        | Some (Proto.Scb _) | None -> None)
      r.r_ab_missing
  in
  (* The successor id derives from the committing attempt.  Attempt and
     view advance in lockstep when changes are uncontested, so this is
     the familiar [view_id + 1]; under contention a takeover runs at a
     strictly higher attempt, so a stale coordinator that still manages
     to commit (it cannot be fenced behind a partition) produces a view
     id its successor never reuses — stale-side state is then
     detectably old instead of colliding with the primary's. *)
  let new_view = View.apply ~id:(c.c_attempt + 1) g.view events in
  Proto.Commit
    {
      group = g.gid;
      view_id = g.view.View.view_id;
      attempt = c.c_attempt;
      coord_site = t.my_site;
      coord_epoch = Endpoint.epoch (endpoint t);
      stabilize = stab_cb @ stab_ab;
      ab_finalize = r.r_ab_finalize;
      ab_drop = r.r_ab_drop;
      events;
      new_view;
      gname = g.gname;
      gb_bodies;
    }

and on_commit t ~src g_opt frame =
  match frame with
  | Proto.Commit
      { group; view_id; attempt; coord_site; coord_epoch; stabilize; ab_finalize; ab_drop;
        events; new_view; gname; gb_bodies; _ } -> (
    let install g_old =
      (* 1. Fill gaps. *)
      (match g_old with
      | Some g ->
        List.iter
          (fun s ->
            match s with
            | Proto.Scb { uid; rank; vt; body } ->
              if not (Causal.seen g.causal uid) then begin
                match vt with
                | Some l when rank >= 0 ->
                  Causal.receive g.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
                | Some _ | None -> Causal.receive_fifo g.causal ~uid body
              end
            | Proto.Sab { uid; prio; body } ->
              Total.commit g.total ~uid prio;
              Total.add_payload g.total ~uid body)
          stabilize;
        List.iter (fun (uid, prio) -> Total.commit g.total ~uid prio) ab_finalize;
        List.iter (fun uid -> try Total.drop g.total ~uid with Invalid_argument _ -> ()) ab_drop;
        (* 2. Deliver everything of the retiring view. *)
        let old_members = local_members t g in
        let deliver uid body =
          Trace.emitf t.tracer ~category:"deliver" "flush g%d %a" (gi g.gid) pp_uid uid;
          trace_proto t (fun () ->
              Obs_event.Deliver
                { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq });
          (* Delivery at the synchronization point is also the moment the
             message's protocol state is discharged: report it stable so
             per-uid timelines complete without a Stable round. *)
          trace_proto t (fun () ->
              Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
          deliver_to_members t g body ~members:old_members
        in
        List.iter (fun (u, b) -> deliver u b) (Causal.force_drain g.causal);
        List.iter (fun (u, _, b) -> deliver u b) (Total.drain g.total);
        (* Anything still pending is uncommitted garbage; discard. *)
        List.iter
          (fun (u, _, _, _) -> try Total.drop g.total ~uid:u with Invalid_argument _ -> ())
          (Total.pending g.total)
      | None -> ());
      (* 3. Install the view. *)
      let old_sites = match g_old with Some g -> View.sites g.view | None -> [] in
      let g =
        match g_old with
        | Some g -> g
        | None ->
          let g = make_group t ~gid:group ~gname ~view:new_view in
          Hashtbl.replace t.groups (gi group) g;
          g
      in
      (* Resolve this site's own change record: if it was the one just
         committed, its batch is consumed; if it was a different
         (superseded) change, requeue its batch for another round. *)
      (match g.change with
      | Some c when c.c_committed -> g.change <- None
      | Some c ->
        g.pending_events <- Deque.prepend c.c_batch g.pending_events;
        g.change <- None
      | None -> ());
      (* Every member site can answer directory queries for its groups,
         so the name outlives the creator site. *)
      if not (String.equal gname "") then
        dir_set t gname (group, View.sites new_view);
      g.view <- new_view;
      g.causal <- Causal.create ~n_ranks:(View.n_members new_view) ();
      g.total <- Total.create ~site:t.my_site ();
      g.store <- Uid_map.empty;
      g.wedge <- None;
      g.minority <- None;
      g.last_commit <- Some frame;
      let new_sites = View.sites new_view in
      let new_site_set = Int_set.of_list new_sites in
      trace_proto t (fun () ->
          Obs_event.View_install
            {
              site = t.my_site;
              group = gi group;
              view_id = new_view.View.view_id;
              nsites = List.length new_sites;
              mhash =
                Hashtbl.hash
                  (List.map
                     (fun (m : Addr.proc) -> (m.Addr.site, m.Addr.idx))
                     new_view.View.members);
            });
      g.suspects <- Int_set.inter g.suspects new_site_set;
      (* Failure is sticky until a rejoin: record processes this change
         removed as failed, and clear any that just (re)joined. *)
      g.failed_procs <-
        List.fold_left
          (fun acc ev ->
            match ev with
            | View.Member_failed p -> p :: acc
            | View.Member_joined p -> List.filter (fun q -> not (Addr.equal_proc q p)) acc
            | View.Member_left _ -> acc)
          g.failed_procs events;
      (* Old-view unstable records of this group are settled by the
         flush. *)
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
        (grp_index_take t.unstable_by_group (gi group));
      List.iter
        (fun u -> Hashtbl.remove t.ab_collects u)
        (grp_index_take t.collects_by_group (gi group));
      (* The flush settled every outstanding ABCAST round of the old
         view; the origination pipeline restarts empty in the new one
         (queued sends dispatch below, before the blocked replay, which
         preserves acceptance order). *)
      g.ab_inflight <- 0;
      dispatch_abcasts t g;
      remember_contacts t group (View.sites new_view);
      (* Track membership on local procs. *)
      List.iter
        (fun ev ->
          match ev with
          | View.Member_joined p when p.Addr.site = t.my_site -> (
            match find_proc t p with
            | Some pr ->
              if not (List.mem (gi group) pr.memberships) then
                pr.memberships <- gi group :: pr.memberships
            | None -> ())
          | View.Member_left p | View.Member_failed p -> (
            if p.Addr.site = t.my_site then
              match Hashtbl.find_opt t.procs p.Addr.idx with
              | Some pr -> pr.memberships <- List.filter (fun g' -> g' <> gi group) pr.memberships
              | None -> ())
          | View.Member_joined _ -> ())
        events;
      (* 4. Deliver user GBCASTs at the synchronization point. *)
      List.iter
        (fun (uid, body) ->
          Trace.emitf t.tracer ~category:"deliver" "gbcast g%d %a" (gi group) pp_uid uid;
          trace_proto t (fun () ->
              Obs_event.Deliver
                { site = t.my_site; group = gi group; usite = uid.usite; useq = uid.useq });
          (* A GBCAST is stable the instant it commits: delivered at the
             synchronization point, everywhere, with nothing left to
             retransmit. *)
          trace_proto t (fun () ->
              Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
          deliver_to_members t g body ~members:(local_members t g))
        gb_bodies;
      (* GBCASTs of ours this commit delivered are done; the rest are
         re-routed below once the new view's coordinator is known. *)
      g.gb_outstanding <-
        List.filter
          (fun (u, _) -> not (List.exists (fun (u', _) -> u' = u) gb_bodies))
          g.gb_outstanding;
      (* 4b. Open reply collections waiting on a removed member will
         never hear from it: discount it now. *)
      List.iter
        (fun ev ->
          match ev with
          | View.Member_failed p | View.Member_left p ->
            let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
            List.iter
              (fun sess -> note_failed_responder t ~session:sess.sess_id ~responder:p)
              open_sessions
          | View.Member_joined _ -> ())
        events;
      (* 5. Monitors and waiters.  The view event is scheduled through
         the same intra-site hop as message deliveries so that every
         local process observes the retiring view's deliveries BEFORE
         the membership change — same order at every member. *)
      let intra = Backend.intra_site_us t.fab.fbk in
      if events <> [] then
        List.iter
          (fun (p, f) ->
            if proc_alive p && View.is_member new_view p.addr then
              ignore
                (Backend.schedule t.bk ~delay:intra (fun () ->
                     if proc_alive p then Sched.spawn p.sched (fun () -> f new_view events))))
          g.g_monitors;
      List.iter
        (fun ev ->
          match ev with
          | View.Member_joined p when p.Addr.site = t.my_site -> (
            match jw_take t ~gid_int:(gi group) ~idx:p.Addr.idx with
            | Some iv -> Ivar.fill iv (Ok ())
            | None -> ())
          | View.Member_left p when p.Addr.site = t.my_site -> (
            match Hashtbl.find_opt t.leave_waiters (gi group, p.Addr.idx) with
            | Some iv ->
              Hashtbl.remove t.leave_waiters (gi group, p.Addr.idx);
              Ivar.fill iv ()
            | None -> ())
          | View.Member_joined _ | View.Member_left _ | View.Member_failed _ -> ())
        events;
      (* 6. Failure detector subscriptions follow the membership. *)
      if local_members t g <> [] then begin
        let old_site_set = Int_set.of_list old_sites in
        List.iter (fun s -> if not (Int_set.mem s old_site_set) then mon_acquire t s) new_sites;
        List.iter (fun s -> if not (Int_set.mem s new_site_set) then mon_release t s) old_sites
      end;
      (* 7. Unwedge: rerun blocked operations in order, then replay any
         frames that arrived for the new view early.  Re-origination
         goes back through [origin_multicast], whose failed-sender check
         discards sends queued by a member this very commit removed as
         failed — replaying those would re-inject them as client relays
         of the new view. *)
      let blocked = List.rev g.blocked_sends in
      g.blocked_sends <- [];
      List.iter (fun (owner, mode, body) -> origin_multicast t g mode ~owner body) blocked;
      replay_held t (gi group);
      (* 8. A group whose membership is empty dissolves. *)
      if View.n_members new_view = 0 then begin
        drop_ab_queue g;
        List.iter (fun s -> mon_release t s) new_sites;
        Hashtbl.remove t.groups (gi group);
        Hashtbl.remove t.contacts (gi group);
        Condition.broadcast t.admission
      end
      else begin
        (* A suspicion that survived the change means the matching
           eviction report went missing — e.g. it was routed to a
           coordinator that a partition (or its death) swallowed.
           Re-propose it against the new view, so failure reports
           converge to an eviction no matter how many are lost in
           flight; duplicates collapse in the coordinator's queue. *)
        List.iter
          (fun (m : Addr.proc) ->
            if m.Addr.site <> t.my_site && Int_set.mem m.Addr.site g.suspects then
              route_event t g (Ev_fail (m, false)))
          new_view.View.members;
        (* Same convergence story for our undelivered GBCASTs: the
           request may be parked at a coordinator this change evicted
           (or a partition swallowed), so re-issue it against the new
           view until some commit carries it.  Duplicates collapse by
           uid in the coordinator's queue. *)
        List.iter (fun (uid, body) -> route_event t g (Ev_gb (uid, body))) (List.rev g.gb_outstanding);
        if i_am_coord t g then maybe_start_change t g
        else if not (Deque.is_empty g.pending_events) then begin
          (* Leadership moved with the new view: hand queued events to
             the coordinator that can actually run them. *)
          let evs = Deque.to_list g.pending_events in
          g.pending_events <- Deque.empty;
          List.iter (fun ev -> route_event t g ev) evs
        end;
        (* A site left without any local member is out of the group:
           drop its copy of the state (it will no longer receive
           commits). *)
        if local_members t g = [] then begin
          drop_ab_queue g;
          List.iter (fun s -> mon_release t s) new_sites;
          Hashtbl.remove t.groups (gi group);
          Condition.broadcast t.admission
        end
      end
    in
    match g_opt with
    | Some g when view_id = g.view.View.view_id ->
      (* Fence the commit against the wedge actually in force here.  A
         coordinator the flush has moved past (its wedge superseded by
         a higher-precedence one) must not finalize: accepting its
         commit while the current coordinator is still collecting acks
         forks the view history.  Acceptable commits: from the exact
         coordinator we are wedged under — same attempt, same site,
         and the same endpoint epoch, so a crashed-and-restarted
         coordinator's ghost commit is rejected; from the wedge-holder
         site itself rebroadcasting a dead predecessor's commit (the
         already-committed recovery path); or carrying an attempt that
         dominates our wedge outright. *)
      let accept =
        match g.wedge with
        | None -> true
        | Some w ->
          if attempt = w.w_attempt && coord_site = w.w_coord then coord_epoch = w.w_epoch
          else if src = w.w_coord then true
          else attempt > w.w_attempt || (attempt = w.w_attempt && coord_site < w.w_coord)
      in
      if accept then install (Some g)
      else
        Trace.emitf t.tracer ~category:"view" "fenced stale commit g%d v%d a%d from s%d"
          (gi group) view_id attempt src
    | Some _ -> () (* stale or repeated commit *)
    | None ->
      (* Joiner site (or rebroadcast): only meaningful if we host one of
         the new members. *)
      if List.exists (fun (m : Addr.proc) -> m.Addr.site = t.my_site) new_view.View.members
      then install None)
  | _ -> invalid_arg "on_commit: not a commit frame"

and make_group t ~gid ~gname ~view =
  ignore t;
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

and replay_held t gid_int =
  match Hashtbl.find_opt t.held gid_int with
  | None -> ()
  | Some frames ->
    Hashtbl.remove t.held gid_int;
    List.iter (fun (src, f) -> handle_group_frame t ~src f) (List.rev frames)

and hold_frame t ~src gid_int frame =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.held gid_int) in
  Hashtbl.replace t.held gid_int ((src, frame) :: cur)

(* --- failure handling --- *)

and on_site_down ?(certain = false) t s =
  Trace.emitf t.tracer ~category:"fail" "site %d suspected down (observed at s%d)" s t.my_site;
  List.iter (fun w -> w (`Down s)) t.site_watchers;
  (* Purge the dead site from name-resolution hints FIRST: failing the
     open sessions resumes their callers, whose retries must see fresh
     hints. *)
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
    (Hashtbl.copy t.dir);
  session_site_down t s;
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [] in
  List.iter
    (fun g ->
      (* A certain death (incarnation change) is always re-reported,
         even for a site already under suspicion: the earlier
         suspicion-based report may have been lost in flight (routed to
         a coordinator across a partition), and certainty additionally
         shrinks the primary-partition quorum base. *)
      if List.mem s (View.sites g.view) && (certain || not (Int_set.mem s g.suspects)) then begin
        g.suspects <- Int_set.add s g.suspects;
        let victims = View.members_at_site g.view s in
        if i_am_coord t g then begin
          List.iter (fun v -> enqueue_event t g (Ev_fail (v, certain))) victims;
          (* A change in flight that involved the dead site must restart. *)
          match g.change with
          | Some c when List.mem s c.c_sites -> restart_change t g
          | Some _ -> ()
          | None -> maybe_start_change t g
        end
        else begin
          (* Tell the acting coordinator (it may not share our failure
             detector's view yet). *)
          List.iter (fun v -> route_event t g (Ev_fail (v, certain))) victims;
          (* If the dead site was the coordinator, we may have just
             become it. *)
          if i_am_coord t g then begin
            List.iter (fun v -> enqueue_event t g (Ev_fail (v, certain))) victims;
            maybe_start_change t g
          end
        end
      end)
    groups

and on_site_up t s =
  Trace.emitf t.tracer ~category:"fail" "site %d announced recovery" s;
  List.iter (fun w -> w (`Up s)) t.site_watchers

(* The ping detector heard back from a site it had declared down: the
   suspicion was about reachability, not death.  Retract it wherever it
   has not yet been acted on — a suspicion that already rode a commit
   is final (the eviction is part of the view history; the site
   rejoins), but one still pending must stop circulating, or the
   install-time re-propose keeps the group churning empty view changes
   forever after the network heals. *)
and on_site_recovered t s =
  Trace.emitf t.tracer ~category:"fail" "site %d reachable again (observed at s%d)" s t.my_site;
  List.iter (fun w -> w (`Up s)) t.site_watchers;
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [] in
  List.iter
    (fun g ->
      if List.mem s (View.sites g.view) && Int_set.mem s g.suspects then
        match g.minority with
        | Some m -> minority_recover t g m ~site:s
        | None ->
          g.suspects <- Int_set.remove s g.suspects;
          let drop ev = match ev with Ev_fail (p, false) -> p.Addr.site <> s | _ -> true in
          g.pending_events <-
            Deque.of_list (List.filter drop (Deque.to_list g.pending_events));
          (* Coordinatorship may have moved back to the recovered site:
             hand it any events parked here. *)
          if (not (i_am_coord t g)) && not (Deque.is_empty g.pending_events) then begin
            let evs = Deque.to_list g.pending_events in
            g.pending_events <- Deque.empty;
            List.iter (fun ev -> route_event t g ev) evs
          end)
    groups

(* --- frame handling --- *)

and handle_frame t ~src frame =
  if t.running then begin
    if Trace.enabled t.tracer then
      Trace.emitf t.tracer ~category:"recv" "s%d<-s%d %a" t.my_site src Proto.pp frame;
    emit_frame_event t ~peer:src ~rx:true frame;
    match frame with
    | Proto.Ptp { dest; body } -> (
      if Message.get_bool body f_is_reply = Some true then on_reply_body t body
      else
        match find_proc t dest with
        | Some p ->
          let want = Option.value ~default:0 (Message.get_int body f_want) in
          if want <> 0 then register_obligation t ~responder:p ~body;
          dispatch_to_proc t p body
        | None -> (
          (* Destination is gone; a caller waiting on it must not hang. *)
          match Message.session body, Message.sender body, Message.get_int body f_want with
          | Some session, Some caller, Some w when w <> 0 ->
            if caller.Addr.site = t.my_site then
              note_failed_responder t ~session ~responder:dest
            else
              send_frame t ~dst:caller.Addr.site
                (Proto.Obligation_failed { session; responder = dest })
          | _ -> ()))
    | Proto.Obligation_failed { session; responder } ->
      note_failed_responder t ~session ~responder
    | Proto.Dir_query { name; qid } ->
      let info =
        match Hashtbl.find_opt t.dir name with
        | Some (gid, sites) -> Some (name, gid, sites)
        | None -> None
      in
      send_frame t ~dst:src (Proto.Dir_reply { qid; info })
    | Proto.Dir_reply { qid; info } -> (
      match Hashtbl.find_opt t.dir_queries qid with
      | None -> ()
      | Some (awaiting, iv) -> (
        match info with
        | Some (name, gid, sites) ->
          Hashtbl.remove t.dir_queries qid;
          dir_set t name (gid, sites);
          remember_contacts t gid sites;
          Ivar.fill_if_empty iv (Some (gid, sites)) |> ignore
        | None ->
          decr awaiting;
          if !awaiting <= 0 then begin
            Hashtbl.remove t.dir_queries qid;
            Ivar.fill_if_empty iv None |> ignore
          end))
    | Proto.Dir_update { name; group; sites } ->
      dir_set t name (group, sites);
      remember_contacts t group sites
    | Proto.Site_hello { site = s; _ } -> on_site_up t s
    | Proto.View_probe { group; view_id = _; from_site } ->
      (* Answer with the view we hold (or -1 for no state at all): a
         minority-wedged prober uses the answer to tell a false alarm
         from an eviction.  Stateless on this side — safe even if this
         site dropped the group long ago. *)
      let vid = match group_of t group with Some g -> g.view.View.view_id | None -> -1 in
      send_frame t ~dst:from_site (Proto.View_probe_reply { group; view_id = vid })
    | Proto.View_probe_reply { group; view_id = peer_vid } -> (
      match group_of t group with
      | None -> ()
      | Some g ->
        if peer_vid > g.view.View.view_id then
          (* The primary partition installed views without us: this copy
             is dead; discard it so members can rejoin fresh. *)
          partition_teardown t g ~new_view_id:peer_vid
        else (
          match g.minority with
          | Some m when peer_vid = g.view.View.view_id -> minority_recover t g m ~site:src
          | Some _ | None -> ()))
    | Proto.Relay { group; mode; body; session; caller } -> (
      match group_of t group with
      | Some g ->
        (match session with
        | Some sid ->
          send_frame t ~dst:caller.Addr.site
            (Proto.Relay_info { session = sid; responders = g.view.View.members })
        | None -> ());
        origin_multicast t g mode ~owner:None body
      | None -> (
        (* Stale contact: report an empty responder set so the caller
           fails fast and can retry after a fresh lookup. *)
        match session with
        | Some sid ->
          send_frame t ~dst:caller.Addr.site (Proto.Relay_info { session = sid; responders = [] })
        | None -> ()))
    | Proto.Relay_info { session; responders } -> (
      match Hashtbl.find_opt t.sessions session with
      | Some sess ->
        if responders = [] then close_session t sess All_failed
        else note_responders t sess responders
      | None -> ())
    | Proto.Deliver_ack { uid; _ } -> on_deliver_ack t ~src uid
    | Proto.Stable { group; uid } -> on_stable t group uid
    | Proto.Cb_data _ | Proto.Ab_data _ | Proto.Ab_prio _ | Proto.Ab_commit _
    | Proto.Join_req _ | Proto.Join_refused _ | Proto.Leave_req _ | Proto.Proc_failed _
    | Proto.Gb_req _ | Proto.Wedge _ | Proto.Wedge_ack _ | Proto.Fetch _
    | Proto.Fetch_reply _ | Proto.Commit _ ->
      handle_group_frame t ~src frame
  end

and handle_group_frame t ~src frame =
  let with_group gid view_id k =
    match group_of t gid with
    | Some g ->
      if view_id = g.view.View.view_id then
        if g.wedge <> None then () (* wedged: post-ack data is dropped; the flush stabilizes *)
        else k g
      else if view_id > g.view.View.view_id then hold_frame t ~src (gi gid) frame
      else if not (List.mem src (View.sites g.view)) then
        (* Stale data from a site outside the current view: a stale
           coordinator that managed to commit a divergent (lower-id)
           view before the primary moved past it, still sending under
           the dead lineage.  Tell it which view is current; the reply
           triggers its partition-eviction path and it rejoins fresh. *)
        send_frame t ~dst:src
          (Proto.View_probe_reply { group = gid; view_id = g.view.View.view_id })
      (* else: stale view from a member, drop (normal retransmit tail) *)
    | None ->
      (* No state for this group: hold the frame only when a local join
         is in flight (new-view data racing its Commit here).  Without a
         joiner nothing will ever replay the buffer — e.g. a restarted
         site whose dead member is still listed in the senders' view
         would accumulate frames without bound. *)
      if jw_any t (gi gid) then hold_frame t ~src (gi gid) frame
  in
  match frame with
  | Proto.Cb_data { group; view_id; uid; rank; vt; body } ->
    with_group group view_id (fun g ->
        (* A duplicate (retransmit, or a replay of something already
           stabilized and GC'd) must not re-create a store copy the
           [Stable] flow already collected. *)
        if not (Causal.seen g.causal uid) then begin
          g.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; body }) g.store;
          (match vt with
          | Some l when rank >= 0 ->
            Causal.receive g.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
          | Some _ | None -> Causal.receive_fifo g.causal ~uid body);
          drain_group t g
        end)
  | Proto.Ab_data { group; view_id; uid; body } ->
    with_group group view_id (fun g ->
        let prio = Total.intake g.total ~uid body in
        send_frame t ~dst:src (Proto.Ab_prio { group; view_id; uid; prio }))
  | Proto.Ab_prio { group; view_id; uid; prio } ->
    with_group group view_id (fun _g -> on_ab_prio t ~src uid prio)
  | Proto.Ab_commit { group; view_id; uid; prio } ->
    with_group group view_id (fun g ->
        Total.commit g.total ~uid prio;
        drain_group t g)
  | Proto.Join_req { group; joiner; credentials } -> (
    match group_of t group with
    | Some g -> route_event t g (Ev_join (joiner, credentials))
    | None ->
      send_frame t ~dst:joiner.Addr.site
        (Proto.Join_refused { group; joiner; reason = "no such group at contact site" }))
  | Proto.Join_refused { group; joiner; reason } -> (
    if joiner.Addr.site = t.my_site then
      (* A "no such group" refusal is authoritative evidence the
         refusing site holds no copy, so stop offering it as a
         contact: after a partition teardown both evicted sites may
         still list each other in their (stale) hints, and without the
         purge a rejoin retry would bounce off the same dead contact
         forever.  With the hint gone, the retry's lookup falls back
         to a directory query and finds the primary.  Other refusals
         (validator, minority wedge) come from sites that DO hold the
         group — their hints stay. *)
      (if reason = "no such group at contact site" then begin
         (match Hashtbl.find_opt t.contacts (gi group) with
         | Some sites -> (
           match List.filter (( <> ) src) sites with
           | [] -> Hashtbl.remove t.contacts (gi group)
           | remaining -> Hashtbl.replace t.contacts (gi group) remaining)
         | None -> ());
         dir_drop_site t ~gid_int:(gi group) ~site:src
       end);
      match jw_take t ~gid_int:(gi group) ~idx:joiner.Addr.idx with
      | Some iv ->
        (* Frames held in anticipation of the join have no replayer
           now (unless another local joiner is still waiting). *)
        if group_of t group = None && not (jw_any t (gi group)) then
          Hashtbl.remove t.held (gi group);
        Ivar.fill iv (Error reason)
      | None -> ())
  | Proto.Leave_req { group; who } -> (
    match group_of t group with
    | Some g ->
      if List.mem src (View.sites g.view) then route_event t g (Ev_leave who)
      else
        send_frame t ~dst:src
          (Proto.View_probe_reply { group; view_id = g.view.View.view_id })
    | None -> ())
  | Proto.Proc_failed { group; who; certain } -> (
    match group_of t group with
    | Some g ->
      (* Suspicion reports are only credible from sites inside the
         current view: a site evicted by a partition keeps pinging
         with stale reachability state, and accepting its suspicions
         after its eviction lets a dead lineage evict live members of
         the primary component.  CERTAIN reports (the victim's own
         site witnessed the death) are ground truth and stay welcome
         from anyone — an old coordinator that just left the view
         still forwards queued kill reports to its successor. *)
      if certain || List.mem src (View.sites g.view) then route_event t g (Ev_fail (who, certain))
      else
        send_frame t ~dst:src
          (Proto.View_probe_reply { group; view_id = g.view.View.view_id })
    | None -> ())
  | Proto.Gb_req { group; uid; body } -> (
    match group_of t group with
    | Some g ->
      if List.mem src (View.sites g.view) then route_event t g (Ev_gb (uid, body))
      else
        (* A GBCAST request from a site outside the current view: the
           sender was evicted while its request sat in a retransmit
           queue (partition).  Honouring it would deliver a message
           from the evicted member AFTER the view change that removed
           it — exactly what the flush exists to forbid.  Point the
           sender at the current view instead; the reply triggers its
           partition-eviction path and it rejoins fresh. *)
        send_frame t ~dst:src
          (Proto.View_probe_reply { group; view_id = g.view.View.view_id })
    | None -> ())
  | Proto.Wedge { group; view_id; attempt; coord_site; coord_epoch } -> (
    match group_of t group with
    | Some g -> on_wedge t ~src g ~view_id ~attempt ~coord_site ~coord_epoch
    | None -> ())
  | Proto.Wedge_ack { group; attempt; from_site; cb_known; ab_report; ab_counter; already_committed; _ } -> (
    match group_of t group with
    | Some g ->
      on_wedge_ack t g ~from_site ~attempt
        (* The wire carries plain lists; index them once on receipt so
           the flush reconciliation runs on sets. *)
        {
          a_cb_known = Uid_set.of_list cb_known;
          a_ab_uids =
            Uid_set.of_list (List.map (fun (r : Proto.ab_report) -> r.Proto.ab_uid) ab_report);
          a_ab_report = ab_report;
          a_ab_counter = ab_counter;
          a_already = already_committed;
        }
    | None -> ())
  | Proto.Fetch { group; view_id; attempt; uids } -> (
    match group_of t group with
    | Some g -> on_fetch t ~src g ~view_id ~attempt uids
    | None -> ())
  | Proto.Fetch_reply { group; attempt; from_site; bodies; _ } -> (
    match group_of t group with
    | Some g -> on_fetch_reply t g ~from_site ~attempt bodies
    | None -> ())
  | Proto.Commit { group; _ } -> on_commit t ~src (group_of t group) frame
  | _ -> invalid_arg "handle_group_frame: not a group frame"

and on_reply_body t body =
  match Message.session body, Message.sender body with
  | Some session, Some responder -> (
    match Hashtbl.find_opt t.sessions session with
    | None -> () (* superfluous/duplicate replies are discarded silently *)
    | Some sess ->
      clear_obligation t ~responder ~session;
      let null = Message.get_bool body f_null = Some true in
      note_reply t sess ~responder ~body ~null)
  | _ -> ()

(* ==================================================================
   Construction and lifecycle
   ================================================================== *)

let wire_endpoint t =
  let ep =
    Endpoint.create ~config:t.cfg.endpoint t.fab.ep_fabric ~site:t.my_site ~size:Proto.size ()
  in
  t.ep <- Some ep;
  Endpoint.set_tracer ep (Trace.obs t.tracer);
  Endpoint.set_receiver ep (fun ~src frames ->
      (* One arriving packet can carry several frames (coalescing).  The
         fixed per-interrupt dispatch cost is charged once per packet;
         every frame still pays its byte-proportional handling cost.
         Stability bookkeeping is interrupt-level work, not a protocol
         step: a token cost so ack storms do not dominate the CPU
         accounting. *)
      let base_charged = ref false in
      let cost =
        List.fold_left
          (fun acc frame ->
            match frame with
            | Proto.Deliver_ack _ | Proto.Stable _ -> acc + 500
            | f ->
              let base = if !base_charged then 0 else t.cfg.cpu_recv_us in
              base_charged := true;
              acc + cpu_cost t base (Proto.size f))
          0 frames
      in
      on_cpu t cost (fun () -> List.iter (fun frame -> handle_frame t ~src frame) frames));
  Endpoint.set_failure_handler ep (fun s -> if t.running then on_site_down t s);
  Endpoint.set_recovery_handler ep (fun s -> if t.running then on_site_recovered t s);
  (* A peer that crashed and revived inside the suspicion window never
     trips the ping detector, but everything we know about its old
     incarnation (members, channels, unstable acks) is dead state: treat
     the incarnation change as a site failure.  The revived site rejoins
     groups explicitly, like any newcomer. *)
  Endpoint.set_restart_handler ep (fun s -> if t.running then on_site_down ~certain:true t s);
  (* Close the flow-control loop: credit refunds wake originators
     blocked in [bcast_wait]. *)
  Endpoint.set_credit_handler ep (fun _ -> if t.running then Condition.broadcast t.admission)

(* The hygiene gauges live in the registry under stable names, so
   consumers (oracle checks, bench artifacts) sample by name instead of
   importing Runtime accessors.  Registered after [wire_endpoint]: the
   transport gauges read the endpoint lazily at sample time. *)
let register_metrics t =
  let m = t.metrics in
  Metrics.gauge m "runtime.pending_unstable" (fun () -> Hashtbl.length t.unstables);
  Metrics.gauge m "runtime.held_frames" (fun () ->
      Hashtbl.fold (fun _ fs acc -> acc + List.length fs) t.held 0);
  Metrics.gauge m "runtime.sessions" (fun () -> Hashtbl.length t.sessions);
  Metrics.gauge m "runtime.pending_store" (fun () ->
      Hashtbl.fold (fun _ g acc -> acc + Uid_map.cardinal g.store) t.groups 0);
  Metrics.gauge m "runtime.dedup_residue" (fun () ->
      Hashtbl.fold
        (fun _ g acc -> acc + Causal.dedup_residue g.causal + Total.dedup_residue g.total)
        t.groups 0);
  Metrics.gauge m "runtime.cpu_busy_us" (fun () -> t.cpu_busy);
  Metrics.gauge m "runtime.ab_accepted" (fun () ->
      Hashtbl.fold (fun _ g acc -> acc + g.ab_accepted) t.groups 0);
  Metrics.gauge m "runtime.ab_queue" (fun () ->
      Hashtbl.fold (fun _ g acc -> acc + Queue.length g.ab_queue) t.groups 0);
  Metrics.gauge m "runtime.ab_inflight" (fun () ->
      Hashtbl.fold (fun _ g acc -> acc + g.ab_inflight) t.groups 0);
  Metrics.gauge m "transport.inflight" (fun () -> Endpoint.inflight (endpoint t));
  Metrics.gauge m "transport.sendq_depth" (fun () -> Endpoint.sendq_depth (endpoint t));
  Metrics.gauge m "transport.credit_waiting" (fun () -> Endpoint.credit_waiting (endpoint t));
  Metrics.gauge m "transport.credit_used_bytes" (fun () ->
      Endpoint.credit_used_bytes (endpoint t));
  Metrics.gauge m "transport.recv_pending" (fun () -> Endpoint.recv_pending (endpoint t));
  Metrics.gauge m "transport.data_frames" (fun () -> Endpoint.frames_sent (endpoint t));
  Metrics.gauge m "transport.ack_frames" (fun () -> Endpoint.acks_sent (endpoint t));
  Metrics.gauge m "transport.packets" (fun () -> Endpoint.packets_sent (endpoint t));
  Metrics.gauge m "transport.retransmits" (fun () -> Endpoint.retransmits (endpoint t));
  Metrics.gauge m "transport.channel_failures" (fun () ->
      Endpoint.channel_failures (endpoint t))

let create ?(config = default_config) fab ~site ~trace () =
  (* A window below one slot would park every ABCAST in [ab_queue]
     forever, silently. *)
  if config.ab_window < 1 then invalid_arg "Runtime.create: ab_window must be >= 1";
  let metrics = Metrics.create () in
  let t =
    {
      fab;
      my_site = site;
      cfg = config;
      bk = fab.fbk;
      tracer = trace;
      ep = None;
      ctrs = Stats.Counter.create ();
      metrics;
      running = true;
      next_proc_idx = 0;
      next_useq = 0;
      next_session = 0;
      next_qid = 0;
      procs = Hashtbl.create 16;
      groups = Hashtbl.create 16;
      held = Hashtbl.create 8;
      dir = Hashtbl.create 16;
      dir_by_gid = Hashtbl.create 16;
      contacts = Hashtbl.create 16;
      sessions = Hashtbl.create 16;
      obligations = Hashtbl.create 16;
      dir_queries = Hashtbl.create 8;
      unstables = Hashtbl.create 32;
      unstable_by_group = Hashtbl.create 16;
      ab_collects = Hashtbl.create 16;
      collects_by_group = Hashtbl.create 16;
      join_waiters = Hashtbl.create 8;
      join_pending = Hashtbl.create 8;
      leave_waiters = Hashtbl.create 8;
      site_watchers = [];
      mon_refs = Hashtbl.create 8;
      admission = Condition.create ();
      cpu_free = 0;
      cpu_busy = 0;
      send_jobs = Queue.create ();
      packed = [];
      packed_bytes = 0;
      cb_held = Metrics.counter metrics "runtime.cb_held";
    }
  in
  wire_endpoint t;
  register_metrics t;
  t

let crash t =
  if t.running then begin
    Trace.emitf t.tracer ~category:"fail" "site %d crashes" t.my_site;
    t.running <- false;
    Hashtbl.iter
      (fun _ p ->
        p.palive <- false;
        Sched.kill p.sched)
      t.procs;
    Hashtbl.reset t.procs;
    Hashtbl.reset t.groups;
    Hashtbl.reset t.held;
    Hashtbl.reset t.dir;
    Hashtbl.reset t.dir_by_gid;
    Hashtbl.reset t.contacts;
    Hashtbl.reset t.sessions;
    Hashtbl.reset t.obligations;
    Hashtbl.reset t.dir_queries;
    Hashtbl.reset t.unstables;
    Hashtbl.reset t.unstable_by_group;
    Hashtbl.reset t.ab_collects;
    Hashtbl.reset t.collects_by_group;
    Hashtbl.reset t.join_waiters;
    Hashtbl.reset t.join_pending;
    Hashtbl.reset t.leave_waiters;
    Hashtbl.reset t.mon_refs;
    Queue.clear t.send_jobs;
    t.packed <- [];
    t.packed_bytes <- 0;
    t.site_watchers <- [];
    Endpoint.crash (endpoint t)
  end

let restart t =
  if t.running then invalid_arg "Runtime.restart: site is up";
  Endpoint.restart (endpoint t);
  t.running <- true;
  t.cpu_free <- Backend.now t.bk;
  Trace.emitf t.tracer ~category:"fail" "site %d restarts (epoch %d)" t.my_site
    (Endpoint.epoch (endpoint t));
  (* Announce recovery so recovery managers can react. *)
  for s = 0 to Backend.n_sites t.fab.fbk - 1 do
    if s <> t.my_site then
      send_frame t ~dst:s (Proto.Site_hello { site = t.my_site; epoch = Endpoint.epoch (endpoint t) })
  done

let watch_sites t f = t.site_watchers <- f :: t.site_watchers

(* ==================================================================
   Public client API
   ================================================================== *)

let pg_create p name =
  let t = p.rt in
  Stats.Counter.incr t.ctrs "prim.local_rpc";
  if Hashtbl.mem t.dir name then invalid_arg ("Runtime.pg_create: name exists: " ^ name);
  let gid = Addr.group_of_int ((t.my_site lsl 20) lor t.next_useq) in
  t.next_useq <- t.next_useq + 1;
  let view = View.initial gid p.addr in
  let g = make_group t ~gid ~gname:name ~view in
  Hashtbl.replace t.groups (gi gid) g;
  dir_set t name (gid, [ t.my_site ]);
  remember_contacts t gid [ t.my_site ];
  p.memberships <- gi gid :: p.memberships;
  Trace.emitf t.tracer ~category:"group" "create %s = g%d" name (gi gid);
  gid

let pg_lookup p name =
  let t = p.rt in
  Stats.Counter.incr t.ctrs "prim.local_rpc";
  match Hashtbl.find_opt t.dir name with
  | Some (gid, sites) ->
    remember_contacts t gid sites;
    Some gid
  | None ->
    let n = Backend.n_sites t.fab.fbk in
    if n <= 1 then None
    else begin
      Stats.Counter.incr t.ctrs "prim.cbcast";
      let qid = t.next_qid in
      t.next_qid <- qid + 1;
      let iv = Ivar.create () in
      Hashtbl.replace t.dir_queries qid (ref (n - 1), iv);
      for s = 0 to n - 1 do
        if s <> t.my_site then send_frame t ~dst:s (Proto.Dir_query { name; qid })
      done;
      match Ivar.read iv with
      | Some (gid, _) -> Some gid
      | None -> None
    end

let contact_site_for t gid =
  match Hashtbl.find_opt t.contacts (gi gid) with
  | Some (s :: _) -> Some s
  | Some [] | None -> None

let pg_join p gid ~credentials =
  let t = p.rt in
  Stats.Counter.incr t.ctrs "prim.cbcast";
  let credentials = Message.copy credentials in
  Message.set_sender credentials p.addr;
  let iv = Ivar.create () in
  jw_add t ~gid_int:(gi gid) ~idx:p.addr.Addr.idx iv;
  (match group_of t gid with
  | Some g -> route_event t g (Ev_join (p.addr, credentials))
  | None -> (
    match contact_site_for t gid with
    | Some c -> send_frame t ~dst:c (Proto.Join_req { group = gid; joiner = p.addr; credentials })
    | None ->
      ignore (jw_take t ~gid_int:(gi gid) ~idx:p.addr.Addr.idx);
      Ivar.fill iv (Error "no known contact site for group")));
  let r = Ivar.read iv in
  (match r with
  | Ok () -> Stats.Counter.incr t.ctrs "prim.reply"
  | Error _ -> ());
  r

let pg_leave p gid =
  let t = p.rt in
  match group_of t gid with
  | None -> ()
  | Some g ->
    if View.is_member g.view p.addr then begin
      let iv = Ivar.create () in
      Hashtbl.replace t.leave_waiters (gi gid, p.addr.Addr.idx) iv;
      route_event t g (Ev_leave p.addr);
      Ivar.read iv
    end

let pg_add_member p gid who =
  let t = p.rt in
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_add_member: no local view of group"
  | Some g -> route_event t g (Ev_join (who, Message.create ()))

let pg_monitor p gid f =
  let t = p.rt in
  Stats.Counter.incr t.ctrs "prim.local_rpc";
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_monitor: no local view of group"
  | Some g -> g.g_monitors <- (p, f) :: g.g_monitors

let pg_view p gid = match group_of p.rt gid with Some g -> Some g.view | None -> None

let pg_rank p gid =
  match group_of p.rt gid with
  | Some g -> ( try Some (View.rank g.view p.addr) with Not_found -> None)
  | None -> None

let pg_join_verify p gid f =
  match group_of p.rt gid with
  | None -> invalid_arg "Runtime.pg_join_verify: no local view of group"
  | Some g -> g.join_validator <- Some (p, f)

let pg_kill p gid =
  let t = p.rt in
  Stats.Counter.incr t.ctrs "prim.abcast";
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_kill: no local view of group"
  | Some g ->
    let body = Message.create () in
    Message.set_sender body p.addr;
    Message.set_bool body f_pg_kill true;
    origin_multicast t g Abcast ~owner:None body

let register_obligation_direct t ~responder ~session ~caller =
  let idx = responder.addr.Addr.idx in
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.obligations idx) in
  Hashtbl.replace t.obligations idx ((session, caller) :: cur)

let bcast p mode ~dest ~entry msg ~(want : want) =
  let t = p.rt in
  if not (proc_alive p) then All_failed
  else begin
    Stats.Counter.incr t.ctrs
      (match mode with
      | Cbcast -> "prim.cbcast"
      | Abcast -> "prim.abcast"
      | Gbcast -> "prim.gbcast_req");
    let body = Message.copy msg in
    Message.set_sender body p.addr;
    Message.set_entry body entry;
    Message.set_int body f_want (want_to_int want);
    Message.set_int body f_mode (mode_to_int mode);
    match dest with
    | Addr.Proc q ->
      let sess =
        match want with
        | No_reply -> None
        | Wait_n _ | Wait_all ->
          Some (open_session t ~want ~responders:(Some [ q ]) ~relay_site:None)
      in
      (match sess with Some s -> Message.set_session body s.sess_id | None -> ());
      on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun () ->
          if q.Addr.site = t.my_site then begin
            match find_proc t q with
            | Some target ->
              (match sess with
              | Some s ->
                register_obligation_direct t ~responder:target ~session:s.sess_id ~caller:p.addr
              | None -> ());
              dispatch_to_proc t target body
            | None -> (
              match sess with
              | Some s -> note_failed_responder t ~session:s.sess_id ~responder:q
              | None -> ())
          end
          else send_frame t ~dst:q.Addr.site (Proto.Ptp { dest = q; body }));
      (match sess with
      | None -> Replies []
      | Some s -> Ivar.read s.done_ivar)
    | Addr.Group gid -> (
      match group_of t gid with
      | Some g ->
        (* Reject-policy minority: surface the partition to the caller
           as a typed error instead of parking the send behind a wedge
           that may never lift. *)
        (match g.minority, t.cfg.minority_policy with
        | Some _, Reject -> raise (Partitioned gid)
        | (Some _ | None), _ -> ());
        let sess =
          match want with
          | No_reply -> None
          | Wait_n _ | Wait_all ->
            Some (open_session t ~want ~responders:(Some g.view.View.members) ~relay_site:None)
        in
        (match sess with Some s -> Message.set_session body s.sess_id | None -> ());
        p.pending_inits <- p.pending_inits + 1;
        (* An accepted ABCAST counts against admission from now until
           the CPU queue hands it on, whichever way [origin_multicast]
           then routes it; the wake-up follows the hand-off, so a woken
           sender sees it in [ab_queue] or already dispatched. *)
        let ab = mode = Abcast in
        if ab then g.ab_accepted <- g.ab_accepted + 1;
        let size = Message.size body in
        let cbcast = if mode = Cbcast then Some (gi gid, size) else None in
        on_send_cpu t ?cbcast (cpu_cost t t.cfg.cpu_send_us size) (fun () ->
            if ab then g.ab_accepted <- g.ab_accepted - 1;
            origin_multicast t g mode ~owner:(Some p) body;
            if ab then Condition.broadcast t.admission);
        (match sess with
        | None -> Replies []
        | Some s -> Ivar.read s.done_ivar)
      | None -> (
        match contact_site_for t gid with
        | None -> All_failed
        | Some relay ->
          let sess =
            match want with
            | No_reply -> None
            | Wait_n _ | Wait_all -> Some (open_session t ~want ~responders:None ~relay_site:(Some relay))
          in
          (match sess with Some s -> Message.set_session body s.sess_id | None -> ());
          let session_id = Option.map (fun s -> s.sess_id) sess in
          on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun () ->
              send_frame t ~dst:relay
                (Proto.Relay { group = gid; mode; body; session = session_id; caller = p.addr }));
          (match sess with
          | None -> Replies []
          | Some s -> Ivar.read s.done_ivar)))
  end

(* --- originator backpressure --- *)

type send_verdict =
  | Admitted of outcome
  | Backpressure of Addr.group_id

(* A group is overloaded when its origination pipeline is saturated:
   the ABCASTs accepted but not yet dispatched into the window (on the
   send CPU queue or in [ab_queue]) reach two windows, or the
   transport is holding frames for some member site on exhausted
   credit.  Two windows is one in flight plus one ready, so the
   half-window bursts of [dispatch_abcasts] always find work; any more
   only lengthens the FIFO CPU queue in front of the Ab_prio/Ab_commit
   receptions that finish rounds, until new work starves them.  Only
   signals — nothing here blocks or drops. *)
let group_overloaded t g =
  g.ab_accepted + Queue.length g.ab_queue >= 2 * t.cfg.ab_window
  ||
  match t.ep with
  | Some ep -> List.exists (fun dst -> Endpoint.backpressured ep ~dst) (remote_member_sites t g)
  | None -> false

let overloaded_dest t dest =
  match dest with
  | Addr.Group gid -> (
    match group_of t gid with
    | Some g when group_overloaded t g -> Some gid
    | Some _ | None -> None)
  | Addr.Proc _ -> None

(* Non-blocking admission: a send into an overloaded group returns the
   typed [Backpressure] verdict instead of growing the queues — the
   caller decides whether to retry, shed or block. *)
let bcast_try p mode ~dest ~entry msg ~(want : want) =
  match overloaded_dest p.rt dest with
  | Some gid -> Backpressure gid
  | None -> Admitted (bcast p mode ~dest ~entry msg ~want)

(* Blocking admission: park the calling task until the overload clears
   (a credit refund, a CPU-queue hand-off or a pipeline dispatch wakes
   [t.admission]), then send.
   [on_backpressure] fires once when the call actually has to wait, so
   callers can count or log sheds without wrapping the call. *)
let bcast_wait ?on_backpressure p mode ~dest ~entry msg ~(want : want) =
  let t = p.rt in
  (match overloaded_dest t dest with
  | Some gid ->
    (match on_backpressure with Some f -> f gid | None -> ());
    while overloaded_dest t dest <> None do
      Condition.wait t.admission
    done
  | None -> ());
  bcast p mode ~dest ~entry msg ~want

(* The paper's mcast signature takes a destination LIST; replies from
   every group and process funnel into one session. *)
let bcast_multi p mode ~dests ~entry msg ~(want : want) =
  let t = p.rt in
  if not (proc_alive p) then All_failed
  else begin
    Stats.Counter.incr t.ctrs
      (match mode with
      | Cbcast -> "prim.cbcast"
      | Abcast -> "prim.abcast"
      | Gbcast -> "prim.gbcast_req");
    let body = Message.copy msg in
    Message.set_sender body p.addr;
    Message.set_entry body entry;
    Message.set_int body f_want (want_to_int want);
    Message.set_int body f_mode (mode_to_int mode);
    (* Reject-policy minority: any locally-visible destination group
       sitting in a minority component fails the whole send. *)
    List.iter
      (fun dest ->
        match dest with
        | Addr.Group gid -> (
          match group_of t gid with
          | Some g when g.minority <> None && t.cfg.minority_policy = Reject ->
            raise (Partitioned gid)
          | Some _ | None -> ())
        | Addr.Proc _ -> ())
      dests;
    (* Responders across all destinations, when every group is locally
       visible; otherwise leave them to the relays. *)
    let local_responders =
      List.fold_left
        (fun acc dest ->
          match acc, dest with
          | None, _ -> None
          | Some rs, Addr.Proc q -> Some (q :: rs)
          | Some rs, Addr.Group gid -> (
            match group_of t gid with
            | Some g -> Some (g.view.View.members @ rs)
            | None -> None))
        (Some []) dests
    in
    let sess =
      match want with
      | No_reply -> None
      | Wait_n _ | Wait_all ->
        Some (open_session t ~want ~responders:local_responders ~relay_site:None)
    in
    (match sess with Some s -> Message.set_session body s.sess_id | None -> ());
    on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun () ->
        List.iter
          (fun dest ->
            match dest with
            | Addr.Proc q ->
              if q.Addr.site = t.my_site then begin
                match find_proc t q with
                | Some target ->
                  (match sess with
                  | Some sx ->
                    register_obligation_direct t ~responder:target ~session:sx.sess_id
                      ~caller:p.addr
                  | None -> ());
                  dispatch_to_proc t target body
                | None -> (
                  match sess with
                  | Some sx -> note_failed_responder t ~session:sx.sess_id ~responder:q
                  | None -> ())
              end
              else send_frame t ~dst:q.Addr.site (Proto.Ptp { dest = q; body })
            | Addr.Group gid -> (
              match group_of t gid with
              | Some g -> origin_multicast t g mode ~owner:(Some p) body
              | None -> (
                match contact_site_for t gid with
                | Some relay ->
                  send_frame t ~dst:relay
                    (Proto.Relay
                       {
                         group = gid;
                         mode;
                         body;
                         session = None (* responders resolved locally or not at all *);
                         caller = p.addr;
                       })
                | None -> ())))
          dests);
    match sess with
    | None -> Replies []
    | Some s -> Ivar.read s.done_ivar
  end

let do_reply p ~request answer ~null ~copy_to =
  let t = p.rt in
  (* A reply costs one asynchronous CBCAST on the wire (Table I); it is
     counted under its own name so the harness can distinguish them. *)
  Stats.Counter.incr t.ctrs (if null then "prim.null_reply" else "prim.reply");
  match Message.session request, Message.sender request with
  | Some session, Some caller ->
    let body = Message.copy answer in
    Message.set_sender body p.addr;
    Message.set_session body session;
    Message.set_bool body f_is_reply true;
    if null then Message.set_bool body f_null true;
    clear_obligation t ~responder:p.addr ~session;
    on_send_cpu t t.cfg.cpu_send_us (fun () ->
        if caller.Addr.site = t.my_site then on_reply_body t body
        else send_frame t ~dst:caller.Addr.site (Proto.Ptp { dest = caller; body }));
    (* Copies to cohorts (coordinator-cohort tool). *)
    List.iter
      (fun (q : Addr.proc) ->
        let copy = Message.copy body in
        Message.remove copy f_is_reply;
        Message.set_entry copy Entry.generic_cc_reply;
        if q.Addr.site = t.my_site then begin
          match find_proc t q with
          | Some target -> dispatch_to_proc t target copy
          | None -> ()
        end
        else send_frame t ~dst:q.Addr.site (Proto.Ptp { dest = q; body = copy }))
      copy_to
  | _ -> invalid_arg "Runtime.reply: request carries no session"

let reply p ~request answer = do_reply p ~request answer ~null:false ~copy_to:[]

let reply_cc p ~request answer ~copy_to = do_reply p ~request answer ~null:false ~copy_to

let null_reply p ~request = do_reply p ~request (Message.create ()) ~null:true ~copy_to:[]

let flush p =
  while p.pending_inits > 0 || not (Uid_set.is_empty p.outstanding) do
    Condition.wait p.flushers
  done

let redeliver p m = dispatch_to_proc p.rt p m

(* The primitive that carried a delivered message — stamped by the
   sending runtime, unforgeable by clients working through the
   toolkit. *)
let delivery_mode m = Option.bind (Message.get_int m f_mode) mode_of_int

(* Gauges for leak tests: all three drain to zero once traffic
   quiesces. *)
let pending_unstable t = Hashtbl.length t.unstables

let pending_held_frames t = Hashtbl.fold (fun _ fs acc -> acc + List.length fs) t.held 0

let pending_sessions t = Hashtbl.length t.sessions

let pending_store t =
  Hashtbl.fold (fun _ g acc -> acc + Uid_map.cardinal g.store) t.groups 0

let dedup_residue t =
  Hashtbl.fold
    (fun _ g acc -> acc + Causal.dedup_residue g.causal + Total.dedup_residue g.total)
    t.groups 0

(* Labelled per-group protocol-state sizes, summed over the site's
   groups — the raw material of the soak bench's bounded-memory
   claim. *)
let state_stats t =
  let store = ref 0 and cb_tail = ref 0 and ab_tail = ref 0 and ab_entries = ref 0 in
  let events = ref 0 and blocked = ref 0 in
  Hashtbl.iter
    (fun _ g ->
      store := !store + Uid_map.cardinal g.store;
      cb_tail := !cb_tail + Causal.dedup_residue g.causal;
      ab_tail := !ab_tail + Total.dedup_residue g.total;
      ab_entries := !ab_entries + List.length (Total.pending g.total);
      events := !events + Deque.length g.pending_events;
      blocked := !blocked + List.length g.blocked_sends)
    t.groups;
  [
    ("store", !store);
    ("cb_dedup_tail", !cb_tail);
    ("ab_dedup_tail", !ab_tail);
    ("ab_entries", !ab_entries);
    ("pending_events", !events);
    ("blocked_sends", !blocked);
    ("unstables", Hashtbl.length t.unstables);
    ("held_frames", pending_held_frames t);
    ("sessions", Hashtbl.length t.sessions);
  ]
