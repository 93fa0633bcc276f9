(* Multicast origination: the site's CPU queue and CBCAST send packing,
   and the client API that feeds the data path ([bcast*], admission,
   [reply]). *)

open Types
open State
open Sessions
open Interp

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
  let epoch = Endpoint.epoch t.ep in
  ignore
    (Backend.schedule_at t.bk finish (fun () ->
         if t.running && Endpoint.epoch t.ep = epoch then k ()))

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
   [Stable] cover the rest (the cumulative rule, [Datapath.covered]).
   A held send that [Datapath.fate] drops or defers originates nothing
   now, so it never carries the flag; a deferred send reruns alone and
   carries its own.

   Packing is off where it cannot save a receive dispatch: no
   per-packet receive cost.  Every CBCAST then carries the flag. *)
let packing t = t.cfg.cpu_recv_us > 0

let release_packed t =
  let held = t.packed in
  t.packed <- [];
  t.packed_bytes <- 0;
  (* [held] is newest first: the fold restores call order and flags the
     sends no later one in the run originates after. *)
  let _, run =
    List.fold_left
      (fun (later, run) (g, body, k) ->
        (later || Copy.fate g.copy body = Datapath.Originate, (k, not later) :: run))
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

(* --- the client API: bcast, admission, replies --- *)

let contact_site_for t gid =
  match Hashtbl.find_opt t.dir (gi gid) with
  | Some (_, s :: _) -> Some s
  | Some (_, []) | None -> None

(* The system fields every client multicast carries. *)
let stamp_body p mode ~entry msg ~want =
  let t = p.rt in
  count t
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

(* Where one destination of a multicast goes, decided when the call is
   made.  A destination with no route (a group with no copy here and no
   known contact) is unreachable. *)
type route =
  | To_proc of Addr.proc
  | To_copy of group (* this site's copy: accepted at call time *)
  | To_relay of Addr.group_id * int (* no copy here: the directory's contact relays *)

let rec route t = function
  | [] -> []
  | Addr.Proc q :: rest -> To_proc q :: route t rest
  | Addr.Group gid :: rest -> (
    match group_of t gid with
    | Some g -> To_copy g :: route t rest
    | None -> (
      match contact_site_for t gid with
      | Some relay -> To_relay (gid, relay) :: route t rest
      | None -> route t rest))

(* The responders a reply session starts with, and one relay site per
   relayed group: each relay names its group's members when the relayed
   send arrives. *)
let targets routes =
  List.fold_left
    (fun (responders, relays) -> function
      | To_proc q -> (q :: responders, relays)
      | To_copy g -> ((view g).View.members @ responders, relays)
      | To_relay (_, relay) -> (responders, relay :: relays))
    ([], []) routes

(* Until the send CPU queue runs its hand-off, a send accepted into the
   site's copy [g] counts against [g]'s admission limit and holds off
   [p]'s [flush]. *)
let rec accept p = function
  | [] -> ()
  | To_copy g :: rest ->
    p.pending_inits <- p.pending_inits + 1;
    step p.rt g Copy.Accept;
    accept p rest
  | (To_proc _ | To_relay _) :: rest -> accept p rest

(* The send job: every route's frame or hand-off, in destination order.
   The wake-up follows the hand-offs, so a woken sender sees the send
   queued for a window slot or already dispatched. *)
let rec send_routes t p sess mode body ~ack ~handed = function
  | [] -> if handed then Condition.broadcast t.admission
  | To_proc q :: rest ->
    send_to_proc t p sess q body;
    send_routes t p sess mode body ~ack ~handed rest
  | To_copy g :: rest ->
    step t g (Copy.Hand_off { owner = Some p; mode; body; ack });
    send_routes t p sess mode body ~ack ~handed:true rest
  | To_relay (group, relay) :: rest ->
    let session = Option.map (fun s -> s.sess_id) sess in
    send_frame t ~dst:relay (Proto.Relay { group; mode; body; session; caller = p.addr });
    send_routes t p sess mode body ~ack ~handed rest

(* The paper's mcast: one message to a list of groups and processes,
   one send CPU job, and one reply session for all their responders.
   An unreachable destination adds no responder; a call with none
   reachable fails at once, with no CPU charged. *)
let bcast_multi p mode ~dests ~entry msg ~(want : want) =
  let t = p.rt in
  if not (proc_alive p) then All_failed
  else begin
    let body = stamp_body p mode ~entry msg ~want in
    match route t dests with
    | [] -> All_failed
    | routes ->
      let sess =
        match want with
        | No_reply -> None
        | Wait_n _ | Wait_all ->
          let responders, relays = targets routes in
          let s = open_session t ~want ~responders ~relays in
          Message.set_session body s.sess_id;
          Some s
      in
      accept p routes;
      (* A CBCAST into one copy alone may be packed with the next. *)
      let cbcast = match mode, routes with Cbcast, [ To_copy g ] -> Some (g, body) | _ -> None in
      on_send_cpu t ?cbcast (cpu_cost t t.cfg.cpu_send_us (Message.size body)) (fun ~ack ->
          send_routes t p sess mode body ~ack ~handed:false routes);
      await sess
  end

let bcast p mode ~dest ~entry msg ~want = bcast_multi p mode ~dests:[ dest ] ~entry msg ~want

(* --- originator backpressure --- *)

type send_verdict =
  | Admitted of outcome
  | Backpressure of Addr.group_id

(* Admission only signals: nothing here blocks or drops. *)
let overloaded_dest t dest =
  match dest with
  | Addr.Group gid -> (
    match group_of t gid with
    | Some g when Copy.overloaded t.env g.copy -> Some gid
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

let do_reply p ~request answer ~null ~copy_to =
  let t = p.rt in
  (* A reply costs one asynchronous CBCAST on the wire (Table I); it is
     counted under its own name so the harness can distinguish them. *)
  count t (if null then "prim.null_reply" else "prim.reply");
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
