(* Group membership: the interpreter of [Flush].  [feed] runs one input
   through [Flush.step] and the effects it returns, in list order — the
   order the protocol needs them, so sends, timers and trace points keep
   their sequence.  What the core cannot see is gathered here and fed
   back: the data path's wedge-ack report and stored bodies, which local
   processes live, a join validator's verdict.  The install mechanics
   (waiters, monitors, failure-detector subscriptions), the one
   [discard] of a group copy, and the view check and holding of every
   frame addressed to a group live here too.  A partition's minority
   side is described at [Flush.minority]. *)

open Types
open State
open Sessions
open Delivery

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

(* This site's answer to a fetch: the bodies of [uids] it holds,
   noting each it lacks. *)
let fetch_reply t g ~view_id ~attempt uids =
  let bodies, missing = Datapath.bodies g.dp uids in
  List.iter (fun u -> note t g (Flush.Body_missing u)) missing;
  Proto.Fetch_reply { group = g.gid; view_id; attempt; from_site = t.my_site; bodies }

(* Discard this site's copy of [g]: release everything parked on it
   (blocked and queued sends, the owners of its unstable multicasts,
   its leave waiters), take the group off local processes, drop its
   failure-detector subscriptions and the copy itself, and let
   originators blocked in [bcast_wait] re-check admission — a group
   with no local copy is never backpressured.  Frames held for a newer
   view pass to a local join in flight, whose copy will replay them. *)
let discard t g =
  let gid_int = gi g.gid in
  dp t g Datapath.Discard;
  (match Hashtbl.find_opt t.joins gid_int with Some j -> j.early <- g.held | None -> ());
  g.held <- [];
  let leavers = g.leavers in
  g.leavers <- [];
  List.iter (fun (_, iv) -> Ivar.fill iv ()) (List.rev leavers);
  Hashtbl.iter
    (fun _ pr -> pr.memberships <- List.filter (fun g' -> g' <> gid_int) pr.memberships)
    t.procs;
  List.iter (fun site -> Endpoint.unmonitor (endpoint t) ~site) (View.sites (view g));
  Hashtbl.remove t.groups gid_int;
  Condition.broadcast t.admission

(* This site's copy of the group is dead: the primary partition
   installed view [new_view_id] without us (or probing ran dry,
   [new_view_id = -1]).  Discard all group state — unstable minority
   deliveries included — so local members can rejoin as fresh joiners
   and pull current state through the state-transfer toolkit.  The
   sites in [notify] are told the view id [verdict], so they discard
   their copies too.  The directory survives on purpose: it is how the
   rejoin finds the primary.  Only this site stops offering itself as a
   contact: the failure detector purged the unreachable primary sites
   from the hints during the partition, so what is left typically points
   right back here, and a rejoin that resolved the name locally would be
   refused.  If no hint remains, the next lookup queries afresh. *)
let teardown t g ~new_view_id ~verdict ~notify =
  let gid_int = gi g.gid in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_evict
        { site = t.my_site; group = gid_int; view_id = (view g).View.view_id; new_view_id });
  send_frames t (Proto.View_probe_reply { group = g.gid; view_id = verdict }) notify;
  join_fail_all t gid_int "partitioned: evicted from primary partition";
  drop_hint t ~gid_int ~site:t.my_site;
  discard t g

(* Ask each of [sites] which view of [g] it holds. *)
let send_probes t g sites =
  let view_id = (view g).View.view_id in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_probe { site = t.my_site; group = gi g.gid; view_id });
  send_frames t (Proto.View_probe { group = g.gid; view_id; from_site = t.my_site }) sites

let rec feed t g input =
  let fl, effects = Flush.step g.fl input in
  if fl != g.fl then g.fl <- fl;
  List.iter (run t g) effects

and run t g = function
  | Flush.Send (dst, frame) -> send_frame t ~dst frame
  | Flush.Ack_wedge { dst; attempt } -> send_frame t ~dst (Datapath.wedge_ack g.fl g.dp ~attempt)
  | Flush.Arm (delay, timer) -> after t g ~delay (fun () -> feed t g (Flush.Timer timer))
  | Flush.Note n -> note t g n
  | Flush.Refuse_join (p, reason) ->
    if p.Addr.site = t.my_site then join_resolve t (gi g.gid) ~idx:p.Addr.idx (Error reason)
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
    feed t g (Flush.Frame (t.my_site, fetch_reply t g ~view_id:(view g).View.view_id ~attempt uids))
  | Flush.Commit (dests, frame) ->
    count t "prim.gbcast";
    send_frames t frame dests
  | Flush.Retire frame ->
    dp t g (Datapath.Retire frame);
    feed t g (Flush.Retired frame)
  | Flush.Install { retiring; commit } -> install t g ~retiring commit
  | Flush.Probe_sites sites -> send_probes t g sites
  | Flush.Teardown { new_view_id; verdict; notify } -> teardown t g ~new_view_id ~verdict ~notify

(* The second half of an install: [g.fl] already holds the new view. *)
and install t g ~retiring commit =
  match commit with
  | Proto.Commit { group; events; new_view; gname; _ } ->
    let old_sites = match retiring with Some v -> View.sites v | None -> [] in
    (* Every member site can answer directory queries for its groups,
       so the name outlives the creator site; an empty view frees it. *)
    dir_set t ~name:gname group (View.sites new_view);
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
    (* 3. Install the view: fresh engines and store, the old view's
       unstable records settled by the flush; 4. deliver the commit's
       GBCASTs. *)
    dp t g (Datapath.Install commit);
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
        | View.Member_joined p when p.Addr.site = t.my_site ->
          join_resolve t (gi group) ~idx:p.Addr.idx (Ok ())
        | View.Member_left p when p.Addr.site = t.my_site ->
          let left, staying = List.partition (fun (idx, _) -> idx = p.Addr.idx) g.leavers in
          g.leavers <- staying;
          List.iter (fun (_, iv) -> Ivar.fill iv ()) left
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
    (* 7. Unwedge: rerun deferred sends in order, then replay any frames
       that arrived for the new view early.  A rerun send goes back
       through [Datapath.fate], which drops the sends of a member this
       very commit removed as failed — rerunning those would re-inject
       them as client relays of the new view. *)
    dp t g Datapath.Unblock;
    replay_held t g;
    (* 8. A group whose membership is empty dissolves. *)
    if View.n_members new_view = 0 then discard t g
    else begin
      feed t g (Flush.Installed new_view);
      (* A site left without any local member is out of the group: drop
         its copy of the state (it will no longer receive commits). *)
      if local_members t g = [] then discard t g
    end
  | _ -> ()

and replay_held t g =
  let frames = g.held in
  g.held <- [];
  List.iter (fun (src, f) -> handle_group_frame t ~src f) (List.rev frames)

and handle_group_frame t ~src frame =
  let to_flush group =
    match group_of t group with Some g -> feed t g (Flush.Frame (src, frame)) | None -> ()
  in
  match frame with
  | Proto.Cb_data { group; view_id; _ } | Proto.Ab_data { group; view_id; _ }
  | Proto.Ab_prio { group; view_id; _ } | Proto.Ab_commit { group; view_id; _ } -> (
    match group_of t group with
    | Some g ->
      let current = (view g).View.view_id in
      if view_id = current then begin
        (* Wedged: post-ack data is dropped; the flush stabilizes.  A
           site hosting no member of this view sends under another
           lineage that reused the id after a fork (DESIGN.md §4.7):
           its timestamps mean nothing against this view's clocks. *)
        if (not (Flush.wedged g.fl))
           && List.exists (fun (m : Addr.proc) -> m.Addr.site = src) (view g).View.members
        then dp t g (Datapath.Frame (src, frame))
      end
      else if view_id > current then g.held <- (src, frame) :: g.held
      else if not (List.mem src (View.sites (view g))) then
        (* Stale data from a site outside the current view: a stale
           coordinator that managed to commit a divergent (lower-id)
           view before the primary moved past it, still sending under
           the dead lineage. *)
        send_current_view t ~dst:src g
      (* else: stale view from a member, drop (normal retransmit tail) *)
    | None -> (
      (* No state for this group: hold the frame only when a local join
         is in flight (new-view data racing its Commit here).  Without a
         joiner nothing will ever replay the buffer — e.g. a restarted
         site whose dead member is still listed in the senders' view
         would accumulate frames without bound. *)
      match Hashtbl.find_opt t.joins (gi group) with
      | Some j -> j.early <- (src, frame) :: j.early
      | None -> ()))
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
      (* Frames held in anticipation of the join go with its last
         joiner: nothing would replay them. *)
      join_resolve t (gi group) ~idx:joiner.Addr.idx (Error reason))
  | Proto.Fetch { group; view_id; attempt; uids } -> (
    match group_of t group with
    | Some g -> send_frame t ~dst:src (fetch_reply t g ~view_id ~attempt uids)
    | None -> ())
  | Proto.Commit { group; _ } when group_of t group = None -> (
    (* Joiner site (or rebroadcast): only meaningful if we host one of
       the new members. *)
    match Flush.adopt ~me:t.my_site ~epoch:(Endpoint.epoch (endpoint t)) frame with
    | Some (fl, effects) ->
      let g = make_group ~gid:group fl in
      (* Frames that raced the Commit here replay once it installs. *)
      (match Hashtbl.find_opt t.joins (gi group) with
      | Some j ->
        g.held <- j.early;
        j.early <- []
      | None -> ());
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
