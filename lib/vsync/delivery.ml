(* Delivery to local processes, reply obligations, and stability: what
   happens to a multicast once an engine releases it, until every
   destination has it and its protocol state is reclaimed. *)

open Types
open State
open Sessions

(* --- stability --- *)

(* A stable multicast's dedup record can be garbage collected: every
   destination delivered it, and (per-channel FIFO + per-sender
   delivery monotonicity within each engine) everything earlier from
   the same origin site was delivered everywhere first.  Advance the
   watermark of the engine that carried it — the protocol is read off
   the retransmission-store entry, because advancing the {e other}
   engine's watermark could cover a uid of that protocol still in
   flight. *)
let note_stabilized t g uid =
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

(* Whether [uid] is acknowledged on its own: its delivery owes the
   origin a [Deliver_ack], and its stability owes the destinations a
   [Stable].  Every ABCAST is; a CBCAST only when its frame carried the
   [ack] flag, which a packed run sets on its last CBCAST alone. *)
let acked g uid =
  match Uid_map.find uid g.store with
  | Proto.Scb { ack; _ } -> ack
  | Proto.Sab _ | (exception Not_found) -> true

(* The uids a [Deliver_ack] or [Stable] for [uid] settles, oldest
   first.  For a CBCAST: [uid] and the unflagged CBCASTs of its packed
   run, which [g] stores right below it.  A site's CBCASTs are
   delivered, and acknowledged, in useq order (DESIGN.md §4.7), so the
   runs below were settled first, each by its own flagged CBCAST.  An
   ABCAST settles only itself. *)
let covered g uid =
  let rec run acc u =
    match Uid_map.find_last_opt (fun v -> uid_compare v u < 0) g.store with
    | Some (v, Proto.Scb { ack = false; _ }) when v.usite = uid.usite -> run (v :: acc) v
    | Some _ | None -> acc
  in
  match Uid_map.find uid g.store with
  | Proto.Scb _ -> run [ uid ] uid
  | Proto.Sab _ | (exception Not_found) -> [ uid ]

let check_stable t g uid u =
  if u.remaining = [] then begin
    g.unstables <- Uid_map.remove uid g.unstables;
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq }));
    if acked g uid then
      List.iter (fun dst -> send_frame t ~dst (Proto.Stable { group = g.gid; uid })) u.u_dests;
    note_stabilized t g uid;
    g.store <- Uid_map.remove uid g.store;
    match u.u_owner with
    | Some p when p.palive ->
      p.outstanding <- Uid_set.remove uid p.outstanding;
      maybe_wake_flushers p
    | Some _ | None -> ()
  end

let note_local_origin_delivered t g uid =
  (* Origin-site local delivery completes; remote acks may still be
     pending. *)
  match Uid_map.find_opt uid g.unstables with
  | None -> ()
  | Some u -> check_stable t g uid u

let on_deliver_ack t ~src gid uid =
  match group_of t gid with
  | None -> ()
  | Some g ->
    List.iter
      (fun uid ->
        match Uid_map.find_opt uid g.unstables with
        | None -> ()
        | Some u ->
          u.remaining <- List.filter (fun s -> s <> src) u.remaining;
          check_stable t g uid u)
      (covered g uid)

let on_stable t gid uid =
  match group_of t gid with
  | Some g ->
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then begin
       Obs_tracer.emit tr
         (Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
       Obs_tracer.emit tr
         (Obs_event.Stable_advance { site = t.my_site; origin = uid.usite; upto = uid.useq })
     end);
    List.iter
      (fun u ->
        (let tr = Trace.obs t.tracer in
         if (not (uid_equal u uid)) && Obs_tracer.wants tr Obs_event.Proto then
           Obs_tracer.emit tr
             (Obs_event.Stabilize { site = t.my_site; usite = u.usite; useq = u.useq }));
        note_stabilized t g u;
        g.store <- Uid_map.remove u g.store)
      (covered g uid)
  | None -> ()

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

(* Deliver one group-multicast body to every local member (after one
   intra-site hop), registering reply obligations first. *)
let deliver_to_members t body ~members =
  let want = Option.value ~default:0 (Message.get_int body f_want) in
  List.iter
    (fun (m : Addr.proc) ->
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
               if t.running then dispatch_to_proc t p body)))
    members

(* Hand a stored CBCAST to the causal engine: against its vector time
   when the origin stamped one, in per-sender FIFO order otherwise. *)
let causal_receive g ~uid ~rank ~vt body =
  match vt with
  | Some l when rank >= 0 ->
    Causal.receive g.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
  | Some _ | None -> Causal.receive_fifo g.causal ~uid body

(* Deliver everything the engines can release, acknowledge remote
   origins, and mark own-origin local deliveries. *)
let drain_group t g =
  let deliver uid body =
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Deliver
            { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
    deliver_to_members t body ~members:(local_members t g);
    if uid.usite = t.my_site then note_local_origin_delivered t g uid
    else if acked g uid then send_frame t ~dst:uid.usite (Proto.Deliver_ack { group = g.gid; uid })
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

(* Origin-site self-delivery happens outside [drain_group] (the
   primitive looks instantaneous to the sender); give it the same
   [Deliver] event, but only when the site actually hosts members. *)
let emit_local_deliver t g uid =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Proto && local_members t g <> [] then
    Obs_tracer.emit tr
      (Obs_event.Deliver { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq })
