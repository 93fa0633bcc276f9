(* The interpreter of [Copy.step]: [step] runs one input through a group
   copy, then the effects it returns, in list order, so sends, timers and
   trace points keep their sequence.  Everything here is I/O: frames,
   timers, local delivery and its reply obligations, the owners' [flush]
   bookkeeping, waiters and monitors, the directory, failure-detector
   subscriptions, trace points, and a join validator's verdict.  It also
   finds the copy a frame is for, and handles the frames for a group
   this site holds no copy of. *)

open Types
open State
open Sessions

(* --- reply obligations --- *)

let add_obligation t ~responder ~session ~caller =
  let idx = responder.addr.Addr.idx in
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.obligations idx) in
  Hashtbl.replace t.obligations idx ((session, caller) :: cur)

let register_obligation t ~responder ~body =
  match Message.session body, Message.sender body with
  | Some session, Some caller -> add_obligation t ~responder ~session ~caller
  | _ -> ()

let clear_obligation t ~responder ~session =
  let idx = responder.Addr.idx in
  match Hashtbl.find_opt t.obligations idx with
  | None -> ()
  | Some obs ->
    Hashtbl.replace t.obligations idx (List.filter (fun (s, _) -> s <> session) obs)

(* [responder] will never answer [caller]'s [session]: tell the caller,
   locally or over the wire. *)
let obligation_failed t ~session ~(caller : Addr.proc) ~responder =
  if caller.Addr.site = t.my_site then note_failed_responder t ~session ~responder
  else send_frame t ~dst:caller.Addr.site (Proto.Obligation_failed { session; responder })

let fail_obligations_of t p =
  match Hashtbl.find_opt t.obligations p.addr.Addr.idx with
  | None -> ()
  | Some obs ->
    Hashtbl.remove t.obligations p.addr.Addr.idx;
    List.iter (fun (session, caller) -> obligation_failed t ~session ~caller ~responder:p.addr) obs

let on_reply_body t body =
  match Message.session body, Message.sender body with
  | Some session, Some responder -> (
    match Hashtbl.find_opt t.sessions session with
    | None -> () (* superfluous/duplicate replies are discarded silently *)
    | Some sess ->
      clear_obligation t ~responder ~session;
      let null = Message.get_bool body f_null = Some true in
      note_reply t sess ~responder ~body ~null)
  | _ -> ()

(* [runtime.stability_frames]: a frame sent to [n] sites counts [n]. *)
let count_stability t frame n =
  match frame with
  | Proto.Deliver_ack _ | Proto.Stable _ -> Metrics.add t.stability_frames n
  | _ -> ()

(* --- installs and discards --- *)

(* A commit's view is the copy's: every member site can answer
   directory queries for its groups, so the name outlives the creator
   site (an empty view frees it). *)
let installing t g ~gname new_view =
  let new_sites = View.sites new_view in
  dir_set t ~name:gname g.gid new_sites;
  trace_event t Obs_event.Proto (fun () ->
      Obs_event.View_install
        {
          site = t.my_site;
          group = gi g.gid;
          view_id = new_view.View.view_id;
          nsites = List.length new_sites;
          mhash =
            Hashtbl.hash
              (List.map (fun (m : Addr.proc) -> (m.Addr.site, m.Addr.idx)) new_view.View.members);
        })

(* After the commit's GBCASTs were delivered. *)
let installed t g ~retiring ~events new_view =
  (* Open reply collections waiting on a removed member will never
     hear from it: discount it now. *)
  List.iter
    (function
      | View.Member_failed p | View.Member_left p -> note_removed_member t p
      | View.Member_joined _ -> ())
    events;
  (* The view event is scheduled through the same intra-site hop as
     message deliveries so that every local process observes the
     retiring view's deliveries BEFORE the membership change — same
     order at every member. *)
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
        join_resolve t (gi g.gid) ~idx:p.Addr.idx (Ok ())
      | View.Member_left p when p.Addr.site = t.my_site ->
        let left, staying = List.partition (fun (idx, _) -> idx = p.Addr.idx) g.leavers in
        g.leavers <- staying;
        List.iter (fun (_, iv) -> Ivar.fill iv ()) left
      | View.Member_joined _ | View.Member_left _ | View.Member_failed _ -> ())
    events;
  (* Failure detector subscriptions follow the membership. *)
  if View.hosts new_view t.my_site then begin
    let new_sites = Int_set.of_list (View.sites new_view) in
    let old_sites = Int_set.of_list (match retiring with Some v -> View.sites v | None -> []) in
    Int_set.iter (fun site -> Endpoint.monitor t.ep ~site) (Int_set.diff new_sites old_sites);
    Int_set.iter (fun site -> Endpoint.unmonitor t.ep ~site) (Int_set.diff old_sites new_sites)
  end

(* This site's copy of [g] is gone: release its leave waiters, drop its
   failure-detector subscriptions and the copy itself, and let
   originators blocked in [bcast_wait] re-check admission — a group
   with no local copy is never backpressured.  Frames held for a newer
   view pass to a local join in flight, whose copy will replay them. *)
let discard t g ~sites ~held =
  let gid_int = gi g.gid in
  (match Hashtbl.find_opt t.joins gid_int with Some j -> j.early <- held | None -> ());
  let leavers = g.leavers in
  g.leavers <- [];
  List.iter (fun (_, iv) -> Ivar.fill iv ()) (List.rev leavers);
  List.iter (fun site -> Endpoint.unmonitor t.ep ~site) sites;
  Hashtbl.remove t.groups gid_int;
  Condition.broadcast t.admission

(* The copy was evicted from the primary partition, and its local
   members will rejoin.  The directory survives on purpose: it is how
   the rejoin finds the primary.  Only this site stops offering itself
   as a contact: the failure detector purged the unreachable primary
   sites from the hints during the partition, so what is left typically
   points right back here, and a rejoin that resolved the name locally
   would be refused.  If no hint remains, the next lookup queries
   afresh. *)
let teardown t g =
  join_fail_all t (gi g.gid) "partitioned: evicted from primary partition";
  drop_hint t ~gid_int:(gi g.gid) ~site:t.my_site

(* --- the copy's interpreter, and delivery to local processes --- *)

let rec step t g input = run t g (Copy.step t.env g.copy input)

and run t g = function
  | [] -> ()
  | effect :: rest ->
    (match effect with
    | Datapath.Send (dst, frame) ->
      count_stability t frame 1;
      send_frame t ~dst frame
    | Datapath.Mcast (dsts, frame) ->
      count_stability t frame (List.length dsts);
      send_frames t frame dsts
    | Datapath.Deliver (body, members) ->
      let want = Option.value ~default:0 (Message.get_int body f_want) in
      deliver_to_members t body ~want members
    | Datapath.Note ev ->
      let tr = Trace.obs t.tracer in
      if Obs_tracer.wants tr (Obs_event.cls_of ev) then Obs_tracer.emit tr ev
    | Datapath.Init_done p ->
      if p.pending_inits > 0 then p.pending_inits <- p.pending_inits - 1;
      maybe_wake_flushers p
    | Datapath.Outstanding (p, uid) -> if p.palive then p.outstanding <- Uid_set.add uid p.outstanding
    | Datapath.Settled (p, uid) ->
      if p.palive then begin
        p.outstanding <- Uid_set.remove uid p.outstanding;
        maybe_wake_flushers p
      end
    | Datapath.Admit -> Condition.broadcast t.admission
    | Datapath.Gbcast_start _ -> () (* never comes: [Copy.step] answers each with [Flush.Gbcast] *)
    | Datapath.Other io -> run_io t g io);
    run t g rest

and run_io t g = function
  | Copy.Arm (delay, timer) ->
    (* Only if the site is up and [g] is still its copy of the group: a
       timer must not act on a copy that went, or was replaced, while it
       waited. *)
    ignore
      (Backend.schedule t.bk ~delay (fun () ->
           match group_of t g.gid with
           | Some g' when t.running && g' == g -> step t g (Copy.Timer timer)
           | Some _ | None -> ()))
  | Copy.Refuse_join (p, reason) ->
    if p.Addr.site = t.my_site then join_resolve t (gi g.gid) ~idx:p.Addr.idx (Error reason)
    else send_frame t ~dst:p.Addr.site (Proto.Join_refused { group = g.gid; joiner = p; reason })
  | Copy.Validate joins ->
    let valid joiner cred =
      match g.join_validator with
      | Some (vp, f) when proc_alive vp -> f joiner cred
      | Some _ | None -> true
    in
    step t g (Copy.Refused (List.filter_map (fun (p, cred) -> if valid p cred then None else Some p) joins))
  | Copy.Commit (dests, frame) ->
    count t "prim.gbcast";
    send_frames t frame dests
  | Copy.Installing { gname; view } -> installing t g ~gname view
  | Copy.Installed { retiring; view; events } -> installed t g ~retiring ~events view
  | Copy.Teardown -> teardown t g
  | Copy.Discard { sites; held } -> discard t g ~sites ~held

(* Deliver one group-multicast body to each of [members] this site
   hosts (after one intra-site hop), registering reply obligations
   first. *)
and deliver_to_members t body ~want = function
  | [] -> ()
  | (m : Addr.proc) :: rest ->
    (if m.Addr.site = t.my_site then
       match find_proc t m with
       | None -> (
         (* The member died between the send and this delivery: a caller
            waiting on it must not hang. *)
         if want <> 0 then
           match Message.session body, Message.sender body with
           | Some session, Some caller -> obligation_failed t ~session ~caller ~responder:m
           | _ -> ())
       | Some p ->
         if want <> 0 then register_obligation t ~responder:p ~body;
         let intra = Backend.intra_site_us t.fab.fbk in
         ignore
           (Backend.schedule t.bk ~delay:intra (fun () ->
                if t.running then dispatch_to_proc t p body)));
    deliver_to_members t body ~want rest

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
            trace_event t Obs_event.Note (fun () ->
                Obs_event.Error_event
                  {
                    site = t.my_site;
                    what = "no-entry";
                    detail = Printf.sprintf "entry %d at %s" e (Addr.proc_to_string p.addr);
                  }))
    end
  end

and kill_proc p =
  let t = p.rt in
  if p.palive then begin
    p.palive <- false;
    Sched.kill p.sched;
    Hashtbl.remove t.procs p.addr.Addr.idx;
    if t.running then begin
      (* The site monitor detects a local crash immediately (Sec 2.1):
         fail outstanding reply obligations and report the death to
         every group whose view lists the process.  The site monitor
         saw the crash directly: this death is [certain], not a
         suspicion — it never counts against the partition quorum. *)
      fail_obligations_of t p;
      List.iter
        (fun g ->
          if View.is_member (view g) p.addr then step t g (Copy.Event (Flush.Ev_fail (p.addr, true))))
        (Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [])
    end
  end

(* --- frames for a group --- *)

(* [frame] is for [group]. *)
let handle_group_frame t ~src group frame =
  match frame with
  | Proto.Join_refused { joiner; reason; _ } ->
    if joiner.Addr.site = t.my_site then begin
      (* A "no such group" refusal is authoritative evidence the
         refusing site holds no copy, so stop offering it as a contact:
         after a partition teardown both evicted sites may still list
         each other in their (stale) hints, and without the purge a
         rejoin retry would bounce off the same dead contact forever.
         With the hint gone, the retry's lookup falls back to a
         directory query and finds the primary.  Other refusals
         (validator, minority wedge) come from sites that DO hold the
         group — their hints stay. *)
      if reason = "no such group at contact site" then drop_hint t ~gid_int:(gi group) ~site:src;
      (* Frames held in anticipation of the join go with its last
         joiner: nothing would replay them. *)
      join_resolve t (gi group) ~idx:joiner.Addr.idx (Error reason)
    end
  | _ -> (
    match group_of t group, frame with
    | Some g, _ -> step t g (Copy.Frame (src, frame))
    | None, (Proto.Cb_data _ | Proto.Ab_data _ | Proto.Ab_prio _ | Proto.Ab_commit _) -> (
      (* No copy: hold the frame only when a local join is in flight
         (new-view data racing its Commit here).  Without a joiner
         nothing will ever replay the buffer — e.g. a restarted site
         whose dead member is still listed in the senders' view would
         accumulate frames without bound. *)
      match Hashtbl.find_opt t.joins (gi group) with
      | Some j -> j.early <- (src, frame) :: j.early
      | None -> ())
    | None, Proto.Join_req { joiner; _ } ->
      send_frame t ~dst:joiner.Addr.site
        (Proto.Join_refused { group; joiner; reason = "no such group at contact site" })
    | None, Proto.Commit _ -> (
      (* Joiner site (or rebroadcast): only meaningful if we host one of
         the new members.  Frames that raced the Commit here replay once
         it installs. *)
      let join = Hashtbl.find_opt t.joins (gi group) in
      let early = match join with Some j -> j.early | None -> [] in
      match Copy.adopt t.env ~me:t.my_site ~epoch:(Endpoint.epoch t.ep) ~held:early frame with
      | Some (copy, effects) ->
        Option.iter (fun j -> j.early <- []) join;
        let g = make_group ~gid:group copy in
        Hashtbl.replace t.groups (gi group) g;
        run t g effects
      | None -> ())
    | None, _ -> ())

(* --- failure handling --- *)

let each_group t input =
  List.iter (fun g -> step t g input) (Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [])

let on_site_down ?(certain = false) t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "down" });
  List.iter (fun w -> w (`Down s)) t.site_watchers;
  (* Purge the dead site from name-resolution hints FIRST: failing the
     open sessions resumes their callers, whose retries must see fresh
     hints. *)
  forget_site t s;
  session_site_down t s;
  each_group t (Copy.Site_down { site = s; certain })

let on_site_up t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "up" });
  List.iter (fun w -> w (`Up s)) t.site_watchers

(* The ping detector heard back from a site it had declared down. *)
let on_site_recovered t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "reachable" });
  List.iter (fun w -> w (`Up s)) t.site_watchers;
  each_group t (Copy.Site_recovered s)
