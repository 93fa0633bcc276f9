(* The per-site protocols process: frame dispatch, construction and
   site lifecycle, processes, and the client API.  The protocol
   decisions are two cores with no I/O, [Flush] (the view change) and
   [Datapath] (the data path), run by private modules, each using only
   those before it: [State] (records and helpers), [Sessions] (reply
   collection), [Delivery] (local delivery and the data path's
   interpreter), [Origination] (CPU queue, packing, the client send
   API, admission) and [Membership] (the flush's interpreter,
   discarding a copy, site up/down, group frames).  The one call that
   goes back up the stack, [State.t.feed], is set here to
   [Membership.feed]. *)

open Types
include State
open Delivery
open Origination
open Membership

type send_verdict = Origination.send_verdict =
  | Admitted of outcome
  | Backpressure of Addr.group_id

(* Transport-level wire accounting as labelled counts, for the ledger
   (bench/ledger); everything else reads the [transport.*] gauges of
   [metrics]. *)
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

(* --- frame dispatch --- *)

let handle_frame t ~src frame =
  if t.running then begin
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
            obligation_failed t ~session ~caller ~responder:dest
          | _ -> ()))
    | Proto.Obligation_failed { session; responder } ->
      Sessions.note_failed_responder t ~session ~responder
    | Proto.Dir_query { name; qid } ->
      let info = Option.map (fun (gid, sites) -> (name, gid, sites)) (dir_find t name) in
      send_frame t ~dst:src (Proto.Dir_reply { qid; info })
    | Proto.Dir_reply { qid; info } -> (
      match Hashtbl.find_opt t.dir_queries qid with
      | None -> ()
      | Some (awaiting, iv) -> (
        match info with
        | Some (name, gid, sites) ->
          Hashtbl.remove t.dir_queries qid;
          dir_set t ~name gid sites;
          Ivar.fill_if_empty iv (Some (gid, sites)) |> ignore
        | None ->
          decr awaiting;
          if !awaiting <= 0 then begin
            Hashtbl.remove t.dir_queries qid;
            Ivar.fill_if_empty iv None |> ignore
          end))
    | Proto.Dir_update { name; group; sites } -> dir_set t ~name group sites
    | Proto.Site_hello { site = s; _ } -> on_site_up t s
    | Proto.View_probe { group; view_id = _; from_site } ->
      (* Answer with the view we hold (or -1 for no state at all): a
         minority-wedged prober uses the answer to tell a false alarm
         from an eviction.  Stateless on this side — safe even if this
         site dropped the group long ago. *)
      let vid = match group_of t group with Some g -> (view g).View.view_id | None -> -1 in
      send_frame t ~dst:from_site (Proto.View_probe_reply { group; view_id = vid })
    | Proto.View_probe_reply { group; _ } -> (
      (* A newer view means the primary partition moved on without us:
         the flush tears this copy down so members can rejoin fresh. *)
      match group_of t group with Some g -> feed t g (Flush.Frame (src, frame)) | None -> ())
    | Proto.Relay { group; mode; body; session; caller } -> (
      match group_of t group with
      | Some g ->
        (match session with
        | Some sid ->
          send_frame t ~dst:caller.Addr.site
            (Proto.Relay_info { session = sid; responders = (view g).View.members })
        | None -> ());
        dp t g (Datapath.Multicast { owner = None; mode; body; ack = true })
      | None -> (
        (* Stale contact: report an empty responder set, so the caller
           stops waiting on this group; a call with nothing else to
           hear from fails fast and can retry after a fresh lookup. *)
        match session with
        | Some sid ->
          send_frame t ~dst:caller.Addr.site (Proto.Relay_info { session = sid; responders = [] })
        | None -> ()))
    | Proto.Relay_info { session; responders } -> (
      match Hashtbl.find_opt t.sessions session with
      | Some sess -> Sessions.note_relay_answer t sess ~relay:src responders
      | None -> ())
    | Proto.Deliver_ack { group; _ } | Proto.Stable { group; _ } -> (
      match group_of t group with Some g -> dp t g (Datapath.Frame (src, frame)) | None -> ())
    | Proto.Cb_data _ | Proto.Ab_data _ | Proto.Ab_prio _ | Proto.Ab_commit _
    | Proto.Join_req _ | Proto.Join_refused _ | Proto.Leave_req _ | Proto.Proc_failed _
    | Proto.Gb_req _ | Proto.Wedge _ | Proto.Wedge_ack _ | Proto.Fetch _
    | Proto.Fetch_reply _ | Proto.Commit _ ->
      handle_group_frame t ~src frame
  end

(* ==================================================================
   Construction and lifecycle
   ================================================================== *)

let wire_endpoint t =
  let ep = Endpoint.create t.fab.ep_fabric ~site:t.my_site ~size:Proto.size in
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
  Endpoint.set_restart_handler ep (fun s -> if t.running then on_site_down ~certain:true t s)

(* Gauges for leak tests: all three drain to zero once traffic
   quiesces. *)
let pending_unstable t =
  Hashtbl.fold (fun _ g acc -> acc + Datapath.unstable g.dp) t.groups 0

(* Frames held for a view a copy has not installed, and for a group a
   local join is still waiting to receive. *)
let pending_held_frames t =
  Hashtbl.fold (fun _ g acc -> acc + List.length g.held) t.groups 0
  + Hashtbl.fold (fun _ j acc -> acc + List.length j.early) t.joins 0

let pending_sessions t = Hashtbl.length t.sessions

let pending_store t =
  Hashtbl.fold (fun _ g acc -> acc + Datapath.stored g.dp) t.groups 0

let dedup_residue t =
  Hashtbl.fold (fun _ g acc -> acc + Datapath.dedup_residue g.dp) t.groups 0

(* The hygiene gauges live in the registry under stable names, so
   consumers (oracle checks, bench artifacts) sample by name instead of
   importing Runtime accessors.  Registered after [wire_endpoint]: the
   transport gauges read the endpoint lazily at sample time. *)
let register_metrics t =
  let m = t.metrics in
  let sum f = Hashtbl.fold (fun _ g acc -> acc + f g) t.groups 0 in
  Metrics.gauge m "runtime.pending_unstable" (fun () -> pending_unstable t);
  Metrics.gauge m "runtime.held_frames" (fun () -> pending_held_frames t);
  Metrics.gauge m "runtime.sessions" (fun () -> pending_sessions t);
  Metrics.gauge m "runtime.pending_store" (fun () -> pending_store t);
  Metrics.gauge m "runtime.dedup_residue" (fun () -> dedup_residue t);
  Metrics.gauge m "runtime.cpu_busy_us" (fun () -> t.cpu_busy);
  Metrics.gauge m "runtime.accepted" (fun () -> sum (fun g -> Datapath.accepted g.dp));
  Metrics.gauge m "runtime.ab_queue" (fun () -> sum (fun g -> Datapath.queued g.dp));
  Metrics.gauge m "runtime.ab_inflight" (fun () -> sum (fun g -> Datapath.inflight g.dp));
  Metrics.gauge m "transport.inflight" (fun () -> Endpoint.inflight (endpoint t));
  Metrics.gauge m "transport.sendq_depth" (fun () -> Endpoint.sendq_depth (endpoint t));
  Metrics.gauge m "transport.recv_pending" (fun () -> Endpoint.recv_pending (endpoint t));
  Metrics.gauge m "transport.data_frames" (fun () -> Endpoint.frames_sent (endpoint t));
  Metrics.gauge m "transport.ack_frames" (fun () -> Endpoint.acks_sent (endpoint t));
  Metrics.gauge m "transport.packets" (fun () -> Endpoint.packets_sent (endpoint t));
  Metrics.gauge m "transport.retransmits" (fun () -> Endpoint.retransmits (endpoint t));
  Metrics.gauge m "transport.channel_failures" (fun () ->
      Endpoint.channel_failures (endpoint t))

(* Site [site]'s uids, in order.  It outlives a crash, so a restarted
   site never reuses one. *)
let uid_counter site =
  let next = ref 0 in
  fun () ->
    let u = { usite = site; useq = !next } in
    incr next;
    u

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
      feed = (fun _ _ -> ());
      dp_env =
        {
          Datapath.window = config.ab_window;
          fresh = uid_counter site;
          traced = (fun () -> Obs_tracer.wants (Trace.obs trace) Obs_event.Proto);
        };
      metrics;
      running = true;
      next_proc_idx = 0;
      next_session = 0;
      next_qid = 0;
      procs = Hashtbl.create 16;
      groups = Hashtbl.create 16;
      names = Hashtbl.create 16;
      dir = Hashtbl.create 16;
      joins = Hashtbl.create 8;
      sessions = Hashtbl.create 16;
      obligations = Hashtbl.create 16;
      dir_queries = Hashtbl.create 8;
      site_watchers = [];
      admission = Condition.create ();
      cpu_free = 0;
      cpu_busy = 0;
      send_jobs = Queue.create ();
      packed = [];
      packed_bytes = 0;
      cb_held = Metrics.counter metrics "runtime.cb_held";
      stability_frames = Metrics.counter metrics "runtime.stability_frames";
    }
  in
  t.feed <- feed t;
  wire_endpoint t;
  register_metrics t;
  t

let crash t =
  if t.running then begin
    trace_event t Obs_event.Note (fun () ->
        Obs_event.Site_status { site = t.my_site; peer = t.my_site; status = "crash" });
    t.running <- false;
    Hashtbl.iter
      (fun _ p ->
        p.palive <- false;
        Sched.kill p.sched)
      t.procs;
    Hashtbl.reset t.procs;
    Hashtbl.reset t.groups;
    Hashtbl.reset t.names;
    Hashtbl.reset t.dir;
    Hashtbl.reset t.joins;
    Hashtbl.reset t.sessions;
    Hashtbl.reset t.obligations;
    Hashtbl.reset t.dir_queries;
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
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = t.my_site; status = "restart" });
  (* Announce recovery so recovery managers can react. *)
  for s = 0 to Backend.n_sites t.fab.fbk - 1 do
    if s <> t.my_site then
      send_frame t ~dst:s (Proto.Site_hello { site = t.my_site; epoch = Endpoint.epoch (endpoint t) })
  done

let watch_sites t f = t.site_watchers <- f :: t.site_watchers

(* ==================================================================
   Processes
   ================================================================== *)

(* Per-domain: process uids need only be unique within one world, and
   worlds never span domains (the parallel harness runs one world per
   domain), so domain-local counters keep concurrent simulations from
   racing — and from perturbing each other's uids. *)
let next_puid_key = Vsync_util.Dls.make (fun () -> ref 0)

let spawn_proc t ?name () =
  if not t.running then invalid_arg "Runtime.spawn_proc: site is down";
  let idx = t.next_proc_idx in
  t.next_proc_idx <- idx + 1;
  let addr = Addr.proc ~site:t.my_site ~idx ~incarnation:(Endpoint.epoch (endpoint t)) in
  let pname = match name with Some n -> n | None -> Printf.sprintf "p%d.%d" t.my_site idx in
  let next_puid = Vsync_util.Dls.get next_puid_key in
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

let kill_proc = kill_proc

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

(* ==================================================================
   Public client API
   ================================================================== *)

let pg_create p name =
  let t = p.rt in
  count t "prim.local_rpc";
  if Hashtbl.mem t.names name then invalid_arg ("Runtime.pg_create: name exists: " ^ name);
  let gid = Addr.group_of_int ((t.my_site lsl 20) lor (t.dp_env.fresh ()).useq) in
  let g = make_group ~gid (flush_state t ~gname:name (View.initial gid p.addr)) in
  Hashtbl.replace t.groups (gi gid) g;
  dir_set t ~name gid [ t.my_site ];
  p.memberships <- gi gid :: p.memberships;
  gid

let pg_lookup p name =
  let t = p.rt in
  count t "prim.local_rpc";
  match dir_find t name with
  | Some (gid, _) -> Some gid
  | None ->
    let n = Backend.n_sites t.fab.fbk in
    if n <= 1 then None
    else begin
      count t "prim.cbcast";
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

let pg_join p gid ~credentials =
  let t = p.rt in
  count t "prim.cbcast";
  let credentials = Message.copy credentials in
  Message.set_sender credentials p.addr;
  let iv = Ivar.create () in
  join_add t gid ~idx:p.addr.Addr.idx iv;
  (match group_of t gid with
  | Some g -> feed t g (Flush.Event (Flush.Ev_join (p.addr, credentials)))
  | None -> (
    match contact_site_for t gid with
    | Some c -> send_frame t ~dst:c (Proto.Join_req { group = gid; joiner = p.addr; credentials })
    | None ->
      join_resolve t (gi gid) ~idx:p.addr.Addr.idx (Error "no known contact site for group")));
  let r = Ivar.read iv in
  (match r with
  | Ok () -> count t "prim.reply"
  | Error _ -> ());
  r

let pg_leave p gid =
  let t = p.rt in
  match group_of t gid with
  | None -> ()
  | Some g ->
    if View.is_member (view g) p.addr then begin
      let iv = Ivar.create () in
      g.leavers <- (p.addr.Addr.idx, iv) :: g.leavers;
      feed t g (Flush.Event (Flush.Ev_leave p.addr));
      Ivar.read iv
    end

let pg_add_member p gid who =
  let t = p.rt in
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_add_member: no local view of group"
  | Some g -> feed t g (Flush.Event (Flush.Ev_join (who, Message.create ())))

let pg_monitor p gid f =
  let t = p.rt in
  count t "prim.local_rpc";
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_monitor: no local view of group"
  | Some g -> g.g_monitors <- (p, f) :: g.g_monitors

let pg_view p gid = match group_of p.rt gid with Some g -> Some (view g) | None -> None

let pg_rank p gid =
  match group_of p.rt gid with
  | Some g -> ( try Some (View.rank (view g) p.addr) with Not_found -> None)
  | None -> None

let pg_join_verify p gid f =
  match group_of p.rt gid with
  | None -> invalid_arg "Runtime.pg_join_verify: no local view of group"
  | Some g -> g.join_validator <- Some (p, f)

let pg_kill p gid =
  let t = p.rt in
  count t "prim.abcast";
  match group_of t gid with
  | None -> invalid_arg "Runtime.pg_kill: no local view of group"
  | Some g ->
    let body = Message.create () in
    Message.set_sender body p.addr;
    Message.set_bool body f_pg_kill true;
    dp t g (Datapath.Multicast { owner = None; mode = Abcast; body; ack = true })

let bcast = bcast
let bcast_multi = bcast_multi
let bcast_try = bcast_try
let bcast_wait = bcast_wait
let reply = reply
let reply_cc = reply_cc
let null_reply = null_reply

let flush p =
  while p.pending_inits > 0 || not (Uid_set.is_empty p.outstanding) do
    Condition.wait p.flushers
  done

let redeliver p m = dispatch_to_proc p.rt p m

(* The primitive that carried a delivered message — stamped by the
   sending runtime, unforgeable by clients working through the
   toolkit. *)
let delivery_mode m = Option.bind (Message.get_int m f_mode) mode_of_int
