(* Multicast origination: the site's CPU queue and CBCAST send packing,
   the three primitives' first step, the ABCAST origination window and
   admission control, and the client API that feeds them ([bcast*],
   [reply]). *)

open Types
open State
open Sessions
open Delivery

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

(* A job queued by an earlier incarnation dies with it: the restarted
   site must not handle a packet, or run a send, its predecessor
   accepted. *)
let on_cpu t cost k =
  let now = Backend.now t.bk in
  let start = if t.cpu_free > now then t.cpu_free else now in
  let finish = start + cost in
  t.cpu_free <- finish;
  t.cpu_busy <- t.cpu_busy + cost;
  let epoch = Endpoint.epoch (endpoint t) in
  ignore
    (Backend.schedule_at t.bk finish (fun () ->
         if t.running && Endpoint.epoch (endpoint t) = epoch then k ()))

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

   A run is acknowledged once: only the last CBCAST it actually
   originates carries the [ack] flag, and that one's [Deliver_ack] and
   [Stable] cover the rest (the cumulative rule, [Delivery.covered]).
   A held send that [fate] drops or defers originates nothing now, so
   it never carries the flag; a send re-run from [blocked_sends] is
   alone and carries its own.

   Packing is off where it cannot save a receive dispatch: no
   per-packet receive cost.  Every CBCAST then carries the flag. *)
let packing t = t.cfg.cpu_recv_us > 0

(* What origination does with [body] sent into [g] now: the sends of a
   member a past view change removed as failed are dropped, and a
   wedged group defers the rest to the next view. *)
type fate = Drop | Defer | Originate

let fate g body =
  match Message.sender body with
  | Some s when List.exists (Addr.equal_proc s) g.failed_procs -> Drop
  | Some _ | None -> if Flush.wedged g.fl then Defer else Originate

let release_packed t =
  let held = t.packed in
  t.packed <- [];
  t.packed_bytes <- 0;
  (* [held] is newest first: the fold restores call order and flags the
     sends no later one in the run originates after. *)
  let _, run =
    List.fold_left
      (fun (later, run) (g, body, k) -> (later || fate g body = Originate, (k, not later) :: run))
      (false, []) held
  in
  List.iter (fun (k, ack) -> k ~ack) run

(* [cbcast] is [Some (g, body)] for a CBCAST of [body] into the site's
   copy [g]; [k ~ack] runs the send. *)
let on_send_cpu t ?cbcast cost k =
  if not (packing t) then on_cpu t cost (fun () -> k ~ack:true)
  else begin
    Queue.push (match cbcast with Some (g, _) -> gi g.gid | None -> -1) t.send_jobs;
    on_cpu t cost (fun () ->
        ignore (Queue.pop t.send_jobs);
        match cbcast with
        | None ->
          release_packed t;
          k ~ack:true
        | Some (g, body) ->
          let cap = Backend.max_packet_bytes t.bk and bytes = Message.size body in
          let hold = bytes <= cap && Queue.peek_opt t.send_jobs = Some (gi g.gid) in
          if hold && t.packed_bytes + bytes > cap then release_packed t;
          t.packed <- (g, body, k) :: t.packed;
          t.packed_bytes <- t.packed_bytes + bytes;
          if hold then Metrics.incr t.cb_held else release_packed t)
  end

(* --- multicast origination (this site hosts a member, or is relaying
       on behalf of a remote client) --- *)

let init_done owner =
  match owner with
  | Some p ->
    if p.pending_inits > 0 then p.pending_inits <- p.pending_inits - 1;
    maybe_wake_flushers p
  | None -> ()

let mark_unstable g uid ~remote ~owner =
  if remote <> [] then begin
    g.unstables <-
      Uid_map.add uid { remaining = remote; u_owner = owner; u_dests = remote } g.unstables;
    match owner with
    | Some p when p.palive -> p.outstanding <- Uid_set.add uid p.outstanding
    | Some _ | None -> ()
  end

let origin_cbcast t g ~owner ~ack body =
  let uid = fresh_uid t in
  (* Rank used for the timestamp: the sending member if local, else the
     oldest local member (relay). *)
  let rank =
    match Message.sender body with
    | Some s when View.is_member (view g) s -> View.rank (view g) s
    | _ -> (
      match local_members t g with
      | m :: _ -> View.rank (view g) m
      | [] -> -1)
  in
  let vt =
    if rank >= 0 then Some (Vsync_util.Vclock.to_list (Causal.stamp g.causal ~rank)) else None
  in
  let remote = remote_member_sites t g in
  (let tr = Trace.obs t.tracer in
   if Obs_tracer.wants tr Obs_event.Proto then
     Obs_tracer.emit tr
       (Obs_event.Originate
          { site = t.my_site; proto = "cbcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
  if remote <> [] then begin
    g.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; ack; body }) g.store;
    Causal.note_sent g.causal uid;
    mark_unstable g uid ~remote ~owner;
    List.iter
      (fun dst ->
        send_frame t ~dst
          (Proto.Cb_data
             { group = g.gid; view_id = (view g).View.view_id; uid; rank; vt; ack; body }))
      remote
  end;
  (* Self-delivery: immediate — the primitive looks instantaneous to
     the sender, which is the heart of the asynchronous style.  A
     purely local group is stable right here. *)
  emit_local_deliver t g uid;
  deliver_to_members t body ~members:(local_members t g)

(* Queued ABCASTs die with the group copy; release any flusher waiting
   on their origination. *)
let drop_ab_queue g =
  Queue.iter (fun (owner, _) -> init_done owner) g.ab_queue;
  Queue.clear g.ab_queue

let origin_abcast t g ~owner body =
  let uid = fresh_uid t in
  let remote = remote_member_sites t g in
  (let tr = Trace.obs t.tracer in
   if Obs_tracer.wants tr Obs_event.Proto then
     Obs_tracer.emit tr
       (Obs_event.Originate
          { site = t.my_site; proto = "abcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq }));
  let my_prio = Total.intake g.total ~uid body in
  mark_unstable g uid ~remote ~owner;
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
    g.collects <- Uid_map.add uid { ac_expect = remote; ac_max = my_prio } g.collects;
    List.iter
      (fun dst ->
        send_frame t ~dst (Proto.Ab_data { group = g.gid; view_id = (view g).View.view_id; uid; body }))
      remote
  end

(* ABCAST origination is pipelined: a bounded window of phase-1 rounds
   may be outstanding per group, the rest queue.  When commits complete
   they free slots, and because a coalesced packet can complete several
   commits in one engine event, the freed slots dispatch as a burst
   whose Ab_data frames coalesce — under load the pipeline feeds its own
   batching.  [init_done] (which lets [flush] proceed) runs only when
   the multicast is actually originated, so flush semantics still cover
   queued sends. *)
let dispatch_abcasts t g =
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
    not (Flush.wedged g.fl)
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

let origin_gbcast t g body =
  let uid = fresh_uid t in
  trace_event t Obs_event.Proto (fun () ->
      Obs_event.Originate
        { site = t.my_site; proto = "gbcast"; group = gi g.gid; usite = uid.usite; useq = uid.useq });
  t.feed g (Flush.Gbcast (uid, body))

let origin_multicast ?(ack = true) t g mode ~owner body =
  match fate g body with
  | Drop -> init_done owner
  | Defer ->
    (* Wedged: the group is between views; queue the operation and rerun
       it once the new view is installed. *)
    g.blocked_sends <- (owner, mode, body) :: g.blocked_sends
  | Originate -> (
    match mode with
    | Cbcast ->
      origin_cbcast t g ~owner ~ack body;
      init_done owner
    | Abcast ->
      Queue.push (owner, body) g.ab_queue;
      dispatch_abcasts t g
    | Gbcast ->
      origin_gbcast t g body;
      init_done owner)

(* A proposed priority for one of this site's rounds in [g].  Only
   reached through [Membership.handle_group_frame], which drops frames
   for a wedged group: the flush coordinator finalizes those rounds. *)
let on_ab_prio t g ~src uid prio =
  match Uid_map.find_opt uid g.collects with
  | None -> () (* collection finished or superseded by a flush *)
  | Some col -> (
    (let tr = Trace.obs t.tracer in
     if Obs_tracer.wants tr Obs_event.Proto then
       Obs_tracer.emit tr
         (Obs_event.Ab_vote
            { site = t.my_site; voter = src; usite = uid.usite; useq = uid.useq; prio = fst prio }));
    col.ac_max <- prio_max col.ac_max prio;
    (* The proposal's sender is implicit: we just count down. *)
    match col.ac_expect with
    | [] -> ()
    | _ :: _ ->
      col.ac_expect <- List.tl col.ac_expect;
      if col.ac_expect = [] then begin
        g.collects <- Uid_map.remove uid g.collects;
        g.ab_inflight <- max 0 (g.ab_inflight - 1);
        let final = col.ac_max in
        (let tr = Trace.obs t.tracer in
         if Obs_tracer.wants tr Obs_event.Proto then
           Obs_tracer.emit tr
             (Obs_event.Ab_commit
                { site = t.my_site; usite = uid.usite; useq = uid.useq; prio = fst final }));
        List.iter
          (fun dst ->
            send_frame t ~dst
              (Proto.Ab_commit { group = g.gid; view_id = (view g).View.view_id; uid; prio = final }))
          (remote_member_sites t g);
        Total.commit g.total ~uid final;
        drain_group t g;
        (* The freed slot (and any others freed by this same packet)
           dispatches the next queued round(s). *)
        dispatch_abcasts t g
      end)

(* --- the client API: bcast, admission, replies --- *)

let contact_site_for t gid =
  match Hashtbl.find_opt t.dir (gi gid) with
  | Some (_, s :: _) -> Some s
  | Some (_, []) | None -> None

(* The system fields every client multicast carries. *)
let stamp_body p mode ~entry msg ~want =
  let t = p.rt in
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
  body

(* A point-to-point send from [p] to [q], on or off site. *)
let send_to_proc t p sess (q : Addr.proc) body =
  if q.Addr.site = t.my_site then begin
    match find_proc t q with
    | Some target ->
      (match sess with
      | Some s -> add_obligation t ~responder:target ~session:s.sess_id ~caller:p.addr
      | None -> ());
      dispatch_to_proc t target body
    | None -> (
      match sess with
      | Some s -> note_failed_responder t ~session:s.sess_id ~responder:q
      | None -> ())
  end
  else send_frame t ~dst:q.Addr.site (Proto.Ptp { dest = q; body })

let await = function None -> Replies [] | Some s -> Ivar.read s.done_ivar

(* Accept [p]'s multicast into its site's copy [g]: until the send CPU
   queue runs the returned hand-off to [origin_multicast], the send
   counts against [g]'s admission limit and holds off [p]'s [flush]. *)
let accept_into p g mode body =
  p.pending_inits <- p.pending_inits + 1;
  g.accepted <- g.accepted + 1;
  fun ~ack ->
    g.accepted <- g.accepted - 1;
    origin_multicast ~ack p.rt g mode ~owner:(Some p) body

let bcast p mode ~dest ~entry msg ~(want : want) =
  let t = p.rt in
  if not (proc_alive p) then All_failed
  else begin
    let body = stamp_body p mode ~entry msg ~want in
    let session_for ~responders ~relay_site =
      match want with
      | No_reply -> None
      | Wait_n _ | Wait_all ->
        let s = open_session t ~want ~responders ~relay_site in
        Message.set_session body s.sess_id;
        Some s
    in
    match dest with
    | Addr.Proc q ->
      let sess = session_for ~responders:(Some [ q ]) ~relay_site:None in
      on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun ~ack:_ ->
          send_to_proc t p sess q body);
      await sess
    | Addr.Group gid -> (
      match group_of t gid with
      | Some g ->
        let sess = session_for ~responders:(Some (view g).View.members) ~relay_site:None in
        let hand_off = accept_into p g mode body in
        let cbcast = if mode = Cbcast then Some (g, body) else None in
        (* The wake-up follows the hand-off, so a woken sender sees the
           send in [ab_queue] or already dispatched. *)
        on_send_cpu t ?cbcast (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun ~ack ->
            hand_off ~ack;
            Condition.broadcast t.admission);
        await sess
      | None -> (
        match contact_site_for t gid with
        | None -> All_failed
        | Some relay ->
          let sess = session_for ~responders:None ~relay_site:(Some relay) in
          let session_id = Option.map (fun s -> s.sess_id) sess in
          on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun ~ack:_ ->
              send_frame t ~dst:relay
                (Proto.Relay { group = gid; mode; body; session = session_id; caller = p.addr }));
          await sess))
  end

(* --- originator backpressure --- *)

type send_verdict =
  | Admitted of outcome
  | Backpressure of Addr.group_id

(* A group is overloaded when its origination pipeline is saturated:
   the multicasts of every mode accepted but not yet handed on (on the
   send CPU queue, or ABCASTs in [ab_queue]) reach two windows.  Two
   windows is one in flight plus one ready, so the half-window bursts
   of [dispatch_abcasts] always find work; any more only lengthens the
   FIFO CPU queue in front of the receptions that finish rounds and
   acknowledge CBCASTs, until new work starves them.  The one rule
   paces every primitive: an asynchronous CBCAST flood would otherwise
   grow the CPU queue without bound.  Only signals — nothing here
   blocks or drops. *)
let group_overloaded t g = g.accepted + Queue.length g.ab_queue >= 2 * t.cfg.ab_window

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
   (a CPU-queue hand-off or a pipeline dispatch wakes [t.admission]),
   then send.
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
    let body = stamp_body p mode ~entry msg ~want in
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
            | Some g -> Some ((view g).View.members @ rs)
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
    (* Locally visible groups accept the send now, as in [bcast]. *)
    let jobs =
      List.map
        (fun dest ->
          match dest with
          | Addr.Proc q -> fun () -> send_to_proc t p sess q body
          | Addr.Group gid -> (
            match group_of t gid with
            | Some g ->
              let hand_off = accept_into p g mode body in
              fun () -> hand_off ~ack:true
            | None -> (
              fun () ->
                match contact_site_for t gid with
                | Some relay ->
                  (* Responders are resolved locally or not at all. *)
                  send_frame t ~dst:relay
                    (Proto.Relay { group = gid; mode; body; session = None; caller = p.addr })
                | None -> ())))
        dests
    in
    on_send_cpu t (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun ~ack:_ ->
        List.iter (fun job -> job ()) jobs;
        Condition.broadcast t.admission);
    await sess
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
    on_send_cpu t t.cfg.cpu_send_us (fun ~ack:_ ->
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
