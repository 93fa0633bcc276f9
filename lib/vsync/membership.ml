(* Group membership: the interpreter of [Flush].  [feed] runs one input
   through [Flush.step] and the effects it returns, in list order — the
   order the protocol needs them, so sends, timers and trace points keep
   their sequence.  What the core cannot see is gathered here and fed
   back: the engines' report for a wedge ack, stored bodies, which local
   processes live, a join validator's verdict.  The install mechanics
   (engines, deliveries, waiters, monitors) and the dispatch of every
   frame addressed to a group live here too; the teardown of a dead
   minority copy lives in [Partition]. *)

open Types
open State
open Sessions
open Delivery
open Origination
open Partition

let note t g n =
  let group = gi g.gid and site = t.my_site and view_id = (view g).View.view_id in
  let error what detail =
    trace_event t Obs_event.Note (fun () -> Obs_event.Error_event { site; what; detail })
  in
  match n with
  | Flush.Flush_started attempt ->
    trace_event t Obs_event.Proto (fun () -> Obs_event.Flush { site; group; view_id; attempt })
  | Flush.Wedged ->
    trace_event t Obs_event.Proto (fun () -> Obs_event.Wedge { site; group; view_id })
  | Flush.Fenced { view_id; attempt; src } ->
    error "fenced-commit" (Printf.sprintf "g%d v%d a%d from s%d" group view_id attempt src)
  | Flush.No_coordinator -> error "no-live-coordinator" (Printf.sprintf "g%d" group)
  | Flush.Body_missing u -> error "body-missing" (Printf.sprintf "g%d u%d.%d" group u.usite u.useq)
  | Flush.Minority_entered { survivors; needed } ->
    trace_event t Obs_event.Partition (fun () ->
        Obs_event.Partition_wedge { site; group; view_id; survivors; needed })
  | Flush.Minority_left ->
    trace_event t Obs_event.Partition (fun () -> Obs_event.Partition_exit { site; group; view_id })

(* This site's wedge ack for the current view: what its engines hold. *)
let wedge_ack t g ~attempt =
  let cb_known =
    Uid_map.fold
      (fun uid s acc -> match s with Proto.Scb _ -> uid :: acc | Proto.Sab _ -> acc)
      g.store []
  in
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
  Proto.Wedge_ack
    {
      group = g.gid;
      view_id = (view g).View.view_id;
      attempt;
      from_site = t.my_site;
      cb_known;
      ab_report = ab_store @ ab_pending;
      ab_counter = Total.counter g.total;
      already_committed = None;
    }

let body_for t g u =
  match Uid_map.find_opt u g.store with
  | Some s -> Some s
  | None -> (
    match Total.payload_of g.total u with
    | Some body -> Some (Proto.Sab { uid = u; prio = (0, 0); body })
    | None ->
      note t g (Flush.Body_missing u);
      None)

let on_fetch t ~src g ~view_id ~attempt uids =
  let bodies = List.filter_map (fun u -> body_for t g u) uids in
  send_frame t ~dst:src
    (Proto.Fetch_reply { group = g.gid; view_id; attempt; from_site = t.my_site; bodies })

(* Discard this site's copy of [g], releasing its queued ABCASTs, the
   owners of its unstable multicasts and its failure-detector
   subscriptions to [sites]. *)
let drop_copy t g sites =
  drop_ab_queue g;
  settle_unstables g;
  List.iter (fun site -> Endpoint.unmonitor (endpoint t) ~site) sites;
  Hashtbl.remove t.groups (gi g.gid)

(* Settle the retiring view as the commit says, then deliver everything
   it holds: the first half of an install, run on the old engines. *)
let retire t g = function
  | Proto.Commit { stabilize; ab_finalize; ab_drop; _ } ->
    (* 1. Fill gaps. *)
    List.iter
      (fun s ->
        match s with
        | Proto.Scb { uid; rank; vt; body; _ } ->
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
    (* Only an uncommitted ABCAST can be dropped; a committed one is
       delivered below. *)
    let uncommitted () =
      List.filter_map
        (fun (u, _, committed, _) -> if committed then None else Some u)
        (Total.pending g.total)
    in
    let droppable = Uid_set.of_list (uncommitted ()) in
    List.iter (fun uid -> if Uid_set.mem uid droppable then Total.drop g.total ~uid) ab_drop;
    (* 2. Deliver everything of the retiring view. *)
    let old_members = local_members t g in
    let deliver uid body =
      trace_event t Obs_event.Proto (fun () ->
          Obs_event.Deliver
            { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq });
      (* Delivery at the synchronization point is also the moment the
         message's protocol state is discharged: report it stable so
         per-uid timelines complete without a Stable round. *)
      trace_event t Obs_event.Proto (fun () ->
          Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
      deliver_to_members t body ~members:old_members
    in
    List.iter (fun (u, b) -> deliver u b) (Causal.force_drain g.causal);
    List.iter (fun (u, _, b) -> deliver u b) (Total.drain g.total);
    (* Anything still uncommitted is garbage; discard. *)
    List.iter (fun uid -> Total.drop g.total ~uid) (uncommitted ())
  | _ -> ()

let rec feed t g input =
  let fl, effects = Flush.step g.fl input in
  if fl != g.fl then g.fl <- fl;
  List.iter (run t g) effects

and run t g = function
  | Flush.Send (dst, frame) -> send_frame t ~dst frame
  | Flush.Ack_wedge { dst; attempt } -> send_frame t ~dst (wedge_ack t g ~attempt)
  | Flush.Arm (delay, timer) -> after t g ~delay (fun () -> feed t g (Flush.Timer timer))
  | Flush.Note n -> note t g n
  | Flush.Refuse_join (p, reason) ->
    if p.Addr.site = t.my_site then (
      match jw_take t ~gid_int:(gi g.gid) ~idx:p.Addr.idx with
      | Some iv -> Ivar.fill iv (Error reason)
      | None -> ())
    else send_frame t ~dst:p.Addr.site (Proto.Join_refused { group = g.gid; joiner = p; reason })
  | Flush.Check_alive { procs; rest } ->
    feed t g (Flush.Alive_here { alive = List.filter (fun p -> find_proc t p <> None) procs; rest })
  | Flush.Validate joins ->
    let valid joiner cred =
      match g.join_validator with
      | Some (vp, f) when proc_alive vp -> f joiner cred
      | Some _ | None -> true
    in
    let refused = List.filter_map (fun (p, cred) -> if valid p cred then None else Some p) joins in
    feed t g (Flush.Refused refused)
  | Flush.Fetch_local { attempt; uids } ->
    let bodies = List.filter_map (body_for t g) uids and view_id = (view g).View.view_id in
    feed t g
      (Flush.Frame
         (t.my_site, Proto.Fetch_reply { group = g.gid; view_id; attempt; from_site = t.my_site; bodies }))
  | Flush.Commit (dests, frame) ->
    Stats.Counter.incr t.ctrs "prim.gbcast";
    List.iter (fun dst -> send_frame t ~dst frame) dests
  | Flush.Retire frame ->
    retire t g frame;
    feed t g (Flush.Retired frame)
  | Flush.Install { retiring; commit } -> install t g ~retiring commit
  | Flush.Probe_sites sites -> send_probes t g sites
  | Flush.Teardown { new_view_id; verdict; notify } ->
    partition_teardown t g ~new_view_id ~verdict ~notify

(* The second half of an install: [g.fl] already holds the new view. *)
and install t g ~retiring = function
  | Proto.Commit { group; events; new_view; gname; gb_bodies; _ } ->
    let old_sites = match retiring with Some v -> View.sites v | None -> [] in
    (* Every member site can answer directory queries for its groups,
       so the name outlives the creator site. *)
    if not (String.equal gname "") then dir_set t gname (group, View.sites new_view);
    (* 3. Install the view: fresh engines and store. *)
    g.causal <- Causal.create ~n_ranks:(View.n_members new_view) ();
    g.total <- Total.create ~site:t.my_site ();
    g.store <- Uid_map.empty;
    let new_sites = View.sites new_view in
    let new_site_set = Int_set.of_list new_sites in
    trace_event t Obs_event.Proto (fun () ->
        Obs_event.View_install
          {
            site = t.my_site;
            group = gi group;
            view_id = new_view.View.view_id;
            nsites = List.length new_sites;
            mhash =
              Hashtbl.hash
                (List.map (fun (m : Addr.proc) -> (m.Addr.site, m.Addr.idx)) new_view.View.members);
          });
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
    settle_unstables g;
    (* The flush settled every outstanding ABCAST round of the old view;
       the origination pipeline restarts empty in the new one (queued
       sends dispatch below, before the blocked replay, which preserves
       acceptance order). *)
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
        trace_event t Obs_event.Proto (fun () ->
            Obs_event.Deliver
              { site = t.my_site; group = gi group; usite = uid.usite; useq = uid.useq });
        (* A GBCAST is stable the instant it commits: delivered at the
           synchronization point, everywhere, with nothing left to
           retransmit. *)
        trace_event t Obs_event.Proto (fun () ->
            Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
        deliver_to_members t body ~members:(local_members t g))
      gb_bodies;
    (* 4b. Open reply collections waiting on a removed member will never
       hear from it: discount it now. *)
    List.iter
      (function
        | View.Member_failed p | View.Member_left p -> note_removed_member t p
        | View.Member_joined _ -> ())
      events;
    (* 5. Monitors and waiters.  The view event is scheduled through the
       same intra-site hop as message deliveries so that every local
       process observes the retiring view's deliveries BEFORE the
       membership change — same order at every member. *)
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
      let ep = endpoint t and old_site_set = Int_set.of_list old_sites in
      Int_set.iter (fun site -> Endpoint.monitor ep ~site) (Int_set.diff new_site_set old_site_set);
      Int_set.iter
        (fun site -> Endpoint.unmonitor ep ~site)
        (Int_set.diff old_site_set new_site_set)
    end;
    (* 7. Unwedge: rerun blocked operations in order, then replay any
       frames that arrived for the new view early.  Re-origination goes
       back through [origin_multicast], whose failed-sender check
       discards sends queued by a member this very commit removed as
       failed — replaying those would re-inject them as client relays of
       the new view. *)
    let blocked = List.rev g.blocked_sends in
    g.blocked_sends <- [];
    List.iter (fun (owner, mode, body) -> origin_multicast t g mode ~owner body) blocked;
    replay_held t (gi group);
    (* 8. A group whose membership is empty dissolves. *)
    if View.n_members new_view = 0 then begin
      drop_copy t g new_sites;
      Hashtbl.remove t.contacts (gi group);
      Condition.broadcast t.admission
    end
    else begin
      feed t g (Flush.Installed new_view);
      (* A site left without any local member is out of the group: drop
         its copy of the state (it will no longer receive commits). *)
      if local_members t g = [] then begin
        drop_copy t g new_sites;
        Condition.broadcast t.admission
      end
    end
  | _ -> ()

and replay_held t gid_int =
  match Hashtbl.find_opt t.held gid_int with
  | None -> ()
  | Some frames ->
    Hashtbl.remove t.held gid_int;
    List.iter (fun (src, f) -> handle_group_frame t ~src f) (List.rev frames)

and handle_group_frame t ~src frame =
  let with_group gid view_id k =
    match group_of t gid with
    | Some g ->
      let current = (view g).View.view_id in
      if view_id = current then begin
        (* Wedged: post-ack data is dropped; the flush stabilizes.  A
           site hosting no member of this view sends under another
           lineage that reused the id after a fork (DESIGN.md §4.7):
           its timestamps mean nothing against this view's clocks. *)
        if (not (Flush.wedged g.fl))
           && List.exists (fun (m : Addr.proc) -> m.Addr.site = src) (view g).View.members
        then k g
      end
      else if view_id > current then hold_frame t ~src (gi gid) frame
      else if not (List.mem src (View.sites (view g))) then
        (* Stale data from a site outside the current view: a stale
           coordinator that managed to commit a divergent (lower-id)
           view before the primary moved past it, still sending under
           the dead lineage. *)
        send_current_view t ~dst:src g
      (* else: stale view from a member, drop (normal retransmit tail) *)
    | None ->
      (* No state for this group: hold the frame only when a local join
         is in flight (new-view data racing its Commit here).  Without a
         joiner nothing will ever replay the buffer — e.g. a restarted
         site whose dead member is still listed in the senders' view
         would accumulate frames without bound. *)
      if jw_any t (gi gid) then hold_frame t ~src (gi gid) frame
  in
  let to_flush group =
    match group_of t group with Some g -> feed t g (Flush.Frame (src, frame)) | None -> ()
  in
  match frame with
  | Proto.Cb_data { group; view_id; uid; rank; vt; ack; body } ->
    with_group group view_id (fun g ->
        (* A duplicate (retransmit, or a replay of something already
           stabilized and GC'd) must not re-create a store copy the
           [Stable] flow already collected. *)
        if not (Causal.seen g.causal uid) then begin
          g.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; ack; body }) g.store;
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
    with_group group view_id (fun g -> on_ab_prio t g ~src uid prio)
  | Proto.Ab_commit { group; view_id; uid; prio } ->
    with_group group view_id (fun g ->
        Total.commit g.total ~uid prio;
        drain_group t g)
  | Proto.Join_req { group; joiner; _ } when group_of t group = None ->
    send_frame t ~dst:joiner.Addr.site
      (Proto.Join_refused { group; joiner; reason = "no such group at contact site" })
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
      if reason = "no such group at contact site" then drop_hint t ~gid_int:(gi group) ~site:src;
      match jw_take t ~gid_int:(gi group) ~idx:joiner.Addr.idx with
      | Some iv ->
        (* Frames held in anticipation of the join have no replayer
           now (unless another local joiner is still waiting). *)
        if group_of t group = None && not (jw_any t (gi group)) then
          Hashtbl.remove t.held (gi group);
        Ivar.fill iv (Error reason)
      | None -> ())
  | Proto.Fetch { group; view_id; attempt; uids } -> (
    match group_of t group with Some g -> on_fetch t ~src g ~view_id ~attempt uids | None -> ())
  | Proto.Commit { group; _ } when group_of t group = None -> (
    (* Joiner site (or rebroadcast): only meaningful if we host one of
       the new members. *)
    match Flush.adopt ~me:t.my_site ~epoch:(Endpoint.epoch (endpoint t)) frame with
    | Some (fl, effects) ->
      let g = make_group ~gid:group fl in
      Hashtbl.replace t.groups (gi group) g;
      List.iter (run t g) effects
    | None -> ())
  | Proto.Join_req { group; _ } | Proto.Leave_req { group; _ } | Proto.Proc_failed { group; _ }
  | Proto.Gb_req { group; _ } | Proto.Wedge { group; _ } | Proto.Wedge_ack { group; _ }
  | Proto.Fetch_reply { group; _ } | Proto.Commit { group; _ } ->
    to_flush group
  | _ -> ()

(* --- failure handling --- *)

let each_group t input =
  List.iter (fun g -> feed t g input) (Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [])

let on_site_down ?(certain = false) t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "down" });
  List.iter (fun w -> w (`Down s)) t.site_watchers;
  (* Purge the dead site from name-resolution hints FIRST: failing the
     open sessions resumes their callers, whose retries must see fresh
     hints. *)
  forget_site t s;
  session_site_down t s;
  each_group t (Flush.Site_down { site = s; certain })

let on_site_up t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "up" });
  List.iter (fun w -> w (`Up s)) t.site_watchers

(* The ping detector heard back from a site it had declared down. *)
let on_site_recovered t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "reachable" });
  List.iter (fun w -> w (`Up s)) t.site_watchers;
  each_group t (Flush.Site_recovered s)
