(* Delivery to local processes and reply obligations, and the data
   path's interpreter: [dp] runs one input through [Datapath.step] and
   its effects, in list order, which is the order the trace records. *)

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

(* --- delivery to local processes --- *)

let kill_proc p =
  let t = p.rt in
  if p.palive then begin
    p.palive <- false;
    Sched.kill p.sched;
    Hashtbl.remove t.procs p.addr.Addr.idx;
    if t.running then begin
      (* The site monitor detects a local crash immediately (Sec 2.1):
         fail outstanding reply obligations and report the death to
         every group the process belonged to. *)
      fail_obligations_of t p;
      List.iter
        (fun gid_int ->
          match Hashtbl.find_opt t.groups gid_int with
          | None -> ()
          | Some g ->
            if View.is_member (view g) p.addr then
              (* The site monitor saw the crash directly: this death is
                 [certain], not a suspicion — it never counts against the
                 partition quorum. *)
              t.feed g (Flush.Event (Flush.Ev_fail (p.addr, true))))
        p.memberships
    end
  end

let dispatch_to_proc t p body =
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

(* Deliver one group-multicast body to each of [members] this site
   hosts (after one intra-site hop), registering reply obligations
   first. *)
let rec deliver_to_members t body ~want = function
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

(* --- the data path's interpreter --- *)

let note_event t g (n : Datapath.note) =
  let site = t.my_site in
  match n with
  | Datapath.Originated (mode, u) ->
    let proto = match mode with Cbcast -> "cbcast" | Abcast -> "abcast" | Gbcast -> "gbcast" in
    Obs_event.Originate { site; proto; group = gi g.gid; usite = u.usite; useq = u.useq }
  | Datapath.Self_delivered u | Datapath.Delivered u ->
    Obs_event.Deliver { site; group = gi g.gid; usite = u.usite; useq = u.useq }
  | Datapath.Stabilized u -> Obs_event.Stabilize { site; usite = u.usite; useq = u.useq }
  | Datapath.Stable_advance u -> Obs_event.Stable_advance { site; origin = u.usite; upto = u.useq }
  | Datapath.Reclaimed -> Obs_event.Gc_reclaim { site; n = 1 }
  | Datapath.Voted { voter; uid; prio } ->
    Obs_event.Ab_vote { site; voter; usite = uid.usite; useq = uid.useq; prio }
  | Datapath.Committed (u, prio) -> Obs_event.Ab_commit { site; usite = u.usite; useq = u.useq; prio }

(* [runtime.stability_frames]: a frame sent to [n] sites counts [n]. *)
let count_stability t frame n =
  match frame with
  | Proto.Deliver_ack _ | Proto.Stable _ -> Metrics.add t.stability_frames n
  | _ -> ()

let rec dp t g input = run_dp t g (Datapath.step t.dp_env g.fl g.dp input)

and run_dp t g = function
  | [] -> ()
  | effect :: rest ->
    (match effect with
    | Datapath.Send (dst, frame) ->
      count_stability t frame 1;
      send_frame t ~dst frame
    | Datapath.Mcast (dsts, frame) ->
      count_stability t frame (List.length dsts);
      send_frames t frame dsts
    | Datapath.Deliver body ->
      let want = Option.value ~default:0 (Message.get_int body f_want) in
      deliver_to_members t body ~want (view g).View.members
    | Datapath.Note n ->
      let tr = Trace.obs t.tracer in
      if Obs_tracer.wants tr Obs_event.Proto then begin
        match n with
        | Datapath.Self_delivered _ when local_members t g = [] -> ()
        | _ -> Obs_tracer.emit tr (note_event t g n)
      end
    | Datapath.Init_done p ->
      if p.pending_inits > 0 then p.pending_inits <- p.pending_inits - 1;
      maybe_wake_flushers p
    | Datapath.Outstanding (p, uid) -> if p.palive then p.outstanding <- Uid_set.add uid p.outstanding
    | Datapath.Settled (p, uid) ->
      if p.palive then begin
        p.outstanding <- Uid_set.remove uid p.outstanding;
        maybe_wake_flushers p
      end
    | Datapath.Gbcast_start (uid, body) -> t.feed g (Flush.Gbcast (uid, body))
    | Datapath.Admit -> Condition.broadcast t.admission
    | Datapath.Rerun sends -> List.iter (fun s -> dp t g (Datapath.Multicast s)) sends);
    run_dp t g rest
