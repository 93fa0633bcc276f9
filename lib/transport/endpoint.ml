module Backend = Vsync_backend.Backend
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event

type site = int

type config = {
  ping_interval_us : int;
  suspect_after : int;
  frame_header_bytes : int;
  max_retransmits : int;
}

let default_config =
  {
    ping_interval_us = 500_000;
    suspect_after = 4;
    frame_header_bytes = 24;
    max_retransmits = 16;
  }

(* How long a receiver waits for reverse data to carry its cumulative
   ack before sending a dedicated [Ack] frame.  Long enough for the next
   protocol-level send (one cpu_send_us apart, ~6 ms) to carry the ack
   instead, yet derived from the retransmission-timeout floor so the
   "delayed ack fires before any RTO" relationship cannot be silently
   inverted by retuning one constant: 4/5 of a 10 ms floor is 8 ms. *)
let ack_timer_us = Rtt.default_min_timeout_us * 4 / 5

(* [gen] is the channel generation: bumped by the sender when it gives
   up on a channel (retransmission budget exhausted), so that post-heal
   traffic starts a recognisably fresh FIFO stream instead of silently
   leaving the receiver waiting on sequence numbers that will never
   arrive.

   [ack_gen]/[ack_upto] piggyback the sender's cumulative ack for its
   {e inbound} channel from the destination: reverse traffic carries
   acks for free, so the dedicated delayed-ack timer rarely fires under
   bidirectional load.  They are stamped when the frame actually goes on
   the wire (so retransmissions carry fresh acks); [ack_upto = -1]
   means "nothing to report". *)
type 'p frame =
  | Data of {
      epoch : int;
      gen : int;
      seq : int;
      frag : int;
      nfrags : int;
      chunk : int;
      payload : 'p option;
      mutable ack_gen : int;
      mutable ack_upto : int;
    }
  | Ack of { epoch : int; gen : int; upto : int }
  | Ping of { epoch : int; id : int }
  | Pong of { epoch : int; id : int }

type 'p pending_msg = {
  seq : int;
  frames : 'p frame list;
  first_sent_at : int; (* backend µs *)
  mutable attempts : int;
}

type 'p out_chan = {
  gen : int;
  mutable next_seq : int;
  unacked : 'p pending_msg Queue.t; (* oldest first *)
  out_rtt : Rtt.t;
  mutable rto_timer : Backend.handle option;
}

type 'p partial = {
  nfrags : int;
  got : bool array; (* per-fragment, so duplicated frames can't fake completeness *)
  mutable payload : 'p option;
}

type 'p in_chan = {
  mutable in_gen : int;
  mutable next_deliver : int;
  pending : (int, 'p partial) Hashtbl.t;
  mutable ack_owed : bool;
  mutable ack_timer : Backend.handle option;
}

(* Per-destination staging queue for coalescing: frames enqueued during
   one engine event are packed into shared packets by a zero-delay flush
   callback (the engine fires same-time events in insertion order, so
   the flush runs after every producer of that instant). *)
type 'p sendq = { sq : 'p frame Queue.t; mutable flush_scheduled : bool }

type monitor_state = {
  mon_rtt : Rtt.t;
  mutable missed : int;
  mutable outstanding : (int * int) option; (* ping id, sent at (backend µs) *)
  mutable mon_timer : Backend.handle option;
  mutable active : bool;
  mutable suspected : bool;
      (* failure declared but probing continues: a later pong revokes
         the suspicion via [on_recovery].  A suspicion is a verdict
         about the recent past, not the future — only [unmonitor]
         (membership says the site is really gone) stops the probes. *)
}

type 'p t = {
  fabric : 'p fabric;
  my_site : site;
  size : 'p -> int;
  cfg : config;
  mutable my_epoch : int;
  mutable is_alive : bool;
  mutable receiver : (src:site -> 'p list -> unit) option;
  mutable on_failure : site -> unit;
  mutable on_recovery : site -> unit;
  mutable on_peer_restart : site -> unit;
  outs : (site, 'p out_chan) Hashtbl.t;
  ins : (site, 'p in_chan) Hashtbl.t;
  sendqs : (site, 'p sendq) Hashtbl.t;
  out_gens : (site, int) Hashtbl.t; (* next generation for a re-opened channel *)
  peer_epochs : (site, int) Hashtbl.t;
  monitors : (site, monitor_state) Hashtbl.t;
  mutable next_ping_id : int;
  mutable n_frames_sent : int;
  mutable n_acks_sent : int;
  mutable n_packets_sent : int;
  mutable n_retransmits : int;
  mutable n_channel_failures : int;
  mutable tracer : Tracer.t option;
}

and 'p fabric = {
  fbk : Backend.t;
  mutable endpoints : 'p t option array;
}

let fabric bk = { fbk = bk; endpoints = Array.make (Backend.n_sites bk) None }

let create ?(config = default_config) fabric ~site ~size () =
  if site < 0 || site >= Array.length fabric.endpoints then
    invalid_arg "Endpoint.create: bad site";
  (match fabric.endpoints.(site) with
  | Some _ -> invalid_arg "Endpoint.create: site already has an endpoint"
  | None -> ());
  let t =
    {
      fabric;
      my_site = site;
      size;
      cfg = config;
      my_epoch = 1;
      is_alive = true;
      receiver = None;
      on_failure = (fun _ -> ());
      on_recovery = (fun _ -> ());
      on_peer_restart = (fun _ -> ());
      outs = Hashtbl.create 8;
      ins = Hashtbl.create 8;
      sendqs = Hashtbl.create 8;
      out_gens = Hashtbl.create 8;
      peer_epochs = Hashtbl.create 8;
      monitors = Hashtbl.create 8;
      next_ping_id = 0;
      n_frames_sent = 0;
      n_acks_sent = 0;
      n_packets_sent = 0;
      n_retransmits = 0;
      n_channel_failures = 0;
      tracer = None;
    }
  in
  fabric.endpoints.(site) <- Some t;
  t

let site t = t.my_site
let epoch t = t.my_epoch
let alive t = t.is_alive
let backend t = t.fabric.fbk

let set_receiver t f = t.receiver <- Some f
let set_tracer t tr = t.tracer <- Some tr

(* Guard-then-construct: transport events allocate nothing unless a
   tracer is attached, enabled and listening to the class. *)
let trace_transport t mk =
  match t.tracer with
  | Some tr when Tracer.wants tr Event.Transport -> Tracer.emit tr (mk ())
  | Some _ | None -> ()

let set_failure_handler t f = t.on_failure <- f
let set_recovery_handler t f = t.on_recovery <- f
let set_restart_handler t f = t.on_peer_restart <- f
let frames_sent t = t.n_frames_sent
let acks_sent t = t.n_acks_sent
let packets_sent t = t.n_packets_sent
let retransmits t = t.n_retransmits
let channel_failures t = t.n_channel_failures

(* Live transport state, for bounded-memory gauges: in-flight send
   window (unacked messages, trimmed by cumulative acks) and
   receive-side reassembly buffers (partials above [next_deliver] —
   the receive dedup itself is a per-channel watermark, so it holds no
   per-message state at all). *)
let inflight t = Hashtbl.fold (fun _ ch acc -> acc + Queue.length ch.unacked) t.outs 0
let recv_pending t = Hashtbl.fold (fun _ ch acc -> acc + Hashtbl.length ch.pending) t.ins 0

(* Quiescence gauge: every staged frame flushes within its engine
   instant. *)
let sendq_depth t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q.sq) t.sendqs 0

let frame_bytes t = function
  | Data { chunk; _ } -> chunk + t.cfg.frame_header_bytes
  | Ack _ | Ping _ | Pong _ -> t.cfg.frame_header_bytes

let cancel_ack_timer ch =
  Option.iter Backend.cancel ch.ack_timer;
  ch.ack_timer <- None

(* Stamp the piggybacked cumulative ack for [dst] onto an outgoing data
   frame, at wire time.  Clearing [ack_owed] suppresses the pending
   delayed-ack timer shot: the reverse traffic has carried the ack. *)
let stamp_ack t ~dst frame =
  match frame with
  | Data d -> (
    match Hashtbl.find_opt t.ins dst with
    | Some ch ->
      d.ack_gen <- ch.in_gen;
      d.ack_upto <- ch.next_deliver - 1;
      ch.ack_owed <- false
    | None -> ())
  | Ack _ | Ping _ | Pong _ -> ()

let account_frame t = function
  | Data _ -> t.n_frames_sent <- t.n_frames_sent + 1
  | Ack _ -> t.n_acks_sent <- t.n_acks_sent + 1
  | Ping _ | Pong _ -> ()

(* Fragment sizes for a payload: every chunk fits its own packet. *)
let frame_plan t p =
  let total = t.size p in
  let chunk_cap = Backend.max_packet_bytes t.fabric.fbk - t.cfg.frame_header_bytes in
  let rec chunks remaining acc =
    if remaining <= chunk_cap then List.rev (remaining :: acc)
    else chunks (remaining - chunk_cap) (chunk_cap :: acc)
  in
  chunks (max total 0) []

(* Forward declaration dance: transmit needs handle_packet of the peer. *)
let rec transmit t ~dst frame =
  if t.is_alive then begin
    let q =
      match Hashtbl.find_opt t.sendqs dst with
      | Some q -> q
      | None ->
        let q = { sq = Queue.create (); flush_scheduled = false } in
        Hashtbl.replace t.sendqs dst q;
        q
    in
    Queue.push frame q.sq;
    if not q.flush_scheduled then begin
      q.flush_scheduled <- true;
      let my_epoch = t.my_epoch in
      ignore
        (Backend.schedule (backend t) ~delay:0 (fun () ->
             q.flush_scheduled <- false;
             if t.is_alive && t.my_epoch = my_epoch then flush_sendq t ~dst q
             else Queue.clear q.sq))
    end
  end

and flush_sendq t ~dst q =
  let max_bytes = Backend.max_packet_bytes t.fabric.fbk in
  while not (Queue.is_empty q.sq) do
    (* Greedily pack queued frames into one network packet.  Every frame
       fits on its own ([send] fragments to the packet size), so the
       packet never exceeds [max_packet_bytes]. *)
    let frames = ref [] in
    let bytes = ref 0 in
    let full = ref false in
    while (not !full) && not (Queue.is_empty q.sq) do
      let f = Queue.peek q.sq in
      let fb = frame_bytes t f in
      if !frames = [] || !bytes + fb <= max_bytes then begin
        ignore (Queue.pop q.sq);
        stamp_ack t ~dst f;
        account_frame t f;
        frames := f :: !frames;
        bytes := !bytes + fb
      end
      else full := true
    done;
    send_packet t ~dst (List.rev !frames) ~bytes:!bytes
  done

and send_packet t ~dst frames ~bytes =
  t.n_packets_sent <- t.n_packets_sent + 1;
  (* Per-packet: guard inlined so the disabled path allocates nothing
     (without flambda a [trace_transport] thunk is a heap closure). *)
  (match t.tracer with
  | Some tr when Tracer.wants tr Event.Transport ->
    Tracer.emit tr (Event.Packet_send { site = t.my_site; dst; nframes = List.length frames; bytes })
  | Some _ | None -> ());
  Backend.send t.fabric.fbk ~src:t.my_site ~dst ~bytes (fun () ->
      match t.fabric.endpoints.(dst) with
      | Some peer when peer.is_alive -> handle_packet peer ~src:t.my_site frames
      | Some _ | None -> ())

and out_chan t dst =
  match Hashtbl.find_opt t.outs dst with
  | Some ch -> ch
  | None ->
    let gen = Option.value ~default:0 (Hashtbl.find_opt t.out_gens dst) in
    let ch =
      {
        gen;
        next_seq = 0;
        unacked = Queue.create ();
        out_rtt = Rtt.create ();
        rto_timer = None;
      }
    in
    Hashtbl.replace t.outs dst ch;
    ch

(* Assign a sequence number, fragment and put the message on the
   wire. *)
and launch_msg t ~dst ch p =
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  let sizes = frame_plan t p in
  let nfrags = List.length sizes in
  let frames =
    List.mapi
      (fun i chunk ->
        Data
          {
            epoch = t.my_epoch;
            gen = ch.gen;
            seq;
            frag = i;
            nfrags;
            chunk;
            payload = (if i = 0 then Some p else None);
            ack_gen = 0;
            ack_upto = -1;
          })
      sizes
  in
  let msg = { seq; frames; first_sent_at = Backend.now (backend t); attempts = 0 } in
  Queue.push msg ch.unacked;
  List.iter (fun f -> transmit t ~dst f) frames;
  arm_rto t ~dst ch

and in_chan t src =
  match Hashtbl.find_opt t.ins src with
  | Some ch -> ch
  | None ->
    let ch =
      { in_gen = 0; next_deliver = 0; pending = Hashtbl.create 8; ack_owed = false; ack_timer = None }
    in
    Hashtbl.replace t.ins src ch;
    ch

and arm_rto t ~dst ch =
  if ch.rto_timer = None && not (Queue.is_empty ch.unacked) then begin
    let my_epoch = t.my_epoch in
    let delay = Rtt.timeout_us ch.out_rtt in
    ch.rto_timer <-
      Some
        (Backend.schedule (backend t) ~delay (fun () ->
             ch.rto_timer <- None;
             if t.is_alive && t.my_epoch = my_epoch then begin
               trace_transport t (fun () ->
                   Event.Rto { site = t.my_site; dst; timeout_us = delay });
               retransmit t ~dst ch
             end))
  end

and retransmit t ~dst ch =
  if not (Queue.is_empty ch.unacked) then begin
    Rtt.backoff ch.out_rtt;
    let exhausted =
      Queue.fold (fun acc m -> acc || m.attempts + 1 > t.cfg.max_retransmits) false ch.unacked
    in
    if exhausted then
      (* Go-back-N cannot drop one message and keep sending later ones:
         the receiver would wait forever on the gap.  Exhausting the
         budget therefore fails the whole channel, loudly. *)
      fail_channel t ~dst ch
    else begin
      let nframes = ref 0 in
      Queue.iter
        (fun m ->
          m.attempts <- m.attempts + 1;
          nframes := !nframes + List.length m.frames;
          t.n_retransmits <- t.n_retransmits + List.length m.frames;
          List.iter (fun f -> transmit t ~dst f) m.frames)
        ch.unacked;
      trace_transport t (fun () -> Event.Retransmit { site = t.my_site; dst; nframes = !nframes });
      arm_rto t ~dst ch
    end
  end

and fail_channel t ~dst ch =
  Option.iter Backend.cancel ch.rto_timer;
  ch.rto_timer <- None;
  Queue.clear ch.unacked;
  Hashtbl.remove t.outs dst;
  (* The next send to [dst] opens a fresh FIFO stream under gen+1; the
     receiver discards any leftovers of this generation when it sees it. *)
  Hashtbl.replace t.out_gens dst (ch.gen + 1);
  t.n_channel_failures <- t.n_channel_failures + 1;
  trace_transport t (fun () ->
      Event.Channel_fail
        { site = t.my_site; peer = dst; dir = "out"; reason = "retransmit budget exhausted" });
  t.on_failure dst

(* Inbound analogue of [fail_channel], for a receive stream whose
   reassembly state is provably corrupt: keeping the channel would
   either deliver garbage or wedge FIFO forever, so tear it down loudly
   and let the failure handler treat the peer like any other broken
   channel.  The next frame from the peer reopens a fresh stream. *)
and fail_in_channel t ~src ch ~reason =
  cancel_ack_timer ch;
  Hashtbl.reset ch.pending;
  Hashtbl.remove t.ins src;
  t.n_channel_failures <- t.n_channel_failures + 1;
  trace_transport t (fun () ->
      Event.Channel_fail { site = t.my_site; peer = src; dir = "in"; reason });
  t.on_failure src

(* One network packet arrived: process its frames in order, then hand
   every payload completed by this packet to the receiver in a single
   batch (the protocol layer charges its per-interrupt CPU cost once per
   packet, not once per frame — the point of coalescing). *)
and handle_packet t ~src frames =
  (match t.tracer with
  | Some tr when Tracer.wants tr Event.Transport ->
    Tracer.emit tr (Event.Packet_recv { site = t.my_site; src; nframes = List.length frames })
  | Some _ | None -> ());
  let sink = ref [] in
  List.iter (fun frame -> handle_frame t ~src ~sink frame) frames;
  match (t.receiver, List.rev !sink) with
  | Some deliver, (_ :: _ as payloads) -> deliver ~src payloads
  | _ -> ()

and handle_frame t ~src ~sink frame =
  match t.receiver with
  | None -> () (* not wired up yet; drop *)
  | Some _ ->
    let frame_epoch =
      match frame with
      | Data { epoch; _ } | Ack { epoch; _ } | Ping { epoch; id = _ } | Pong { epoch; id = _ } ->
        epoch
    in
    let known = Hashtbl.find_opt t.peer_epochs src in
    let stale = match known with Some k -> frame_epoch < k | None -> false in
    if stale then () (* stale incarnation *)
    else begin
      (match known with
      | None ->
        (* First contact with this peer: adopt its epoch. *)
        Hashtbl.replace t.peer_epochs src frame_epoch
      | Some k when frame_epoch > k ->
        (* The peer restarted: all channel state for the old incarnation
           is garbage.  Outbound unacked traffic was addressed to the
           dead incarnation; the membership layer handles the fallout. *)
        Hashtbl.replace t.peer_epochs src frame_epoch;
        (match Hashtbl.find_opt t.ins src with
        | Some ch ->
          cancel_ack_timer ch;
          Hashtbl.remove t.ins src
        | None -> ());
        (match Hashtbl.find_opt t.outs src with
        | Some ch ->
          Option.iter Backend.cancel ch.rto_timer;
          Hashtbl.remove t.outs src
        | None -> ());
        (* A restart can beat the failure detector (crash + revive inside
           the suspicion window).  Whoever relied on the old incarnation
           must hear about it regardless.  The monitor's history is of
           the OLD incarnation, so it restarts from scratch: the standing
           suspicion must not be retracted by a pong from the new
           incarnation (recovery means "same incarnation reachable
           again"; a restart confirms the old one is dead for good), and
           the accumulated miss count and any in-flight ping must not be
           held against the new one — a stale ping's backed-off timeout
           firing over a still-huge [missed] would re-declare the fresh
           incarnation down the moment it came up. *)
        (match Hashtbl.find_opt t.monitors src with
        | Some mon ->
          mon.suspected <- false;
          mon.missed <- 0;
          mon.outstanding <- None
        | None -> ());
        t.on_peer_restart src
      | Some _ -> ());
      match frame with
      | Ping { id; _ } -> transmit t ~dst:src (Pong { epoch = t.my_epoch; id })
      | Pong { id; _ } -> handle_pong t ~src ~id
      | Ack { gen; upto; _ } -> handle_ack t ~src ~gen ~upto
      | Data { gen; seq; frag; nfrags; payload; ack_gen; ack_upto; _ } ->
        if ack_upto >= 0 then handle_ack t ~src ~gen:ack_gen ~upto:ack_upto;
        handle_data t ~src ~gen ~seq ~frag ~nfrags ~payload ~sink
    end

and handle_ack t ~src ~gen ~upto =
  match Hashtbl.find_opt t.outs src with
  | None -> ()
  | Some ch when ch.gen <> gen -> () (* ack for an abandoned channel generation *)
  | Some ch ->
    let now = Backend.now (backend t) in
    (* Trim the acked prefix (the queue is oldest-first, so everything
       the cumulative ack covers sits at the head), sampling the RTT
       estimator as we go.  Karn's algorithm: only first-transmission
       samples train the estimator — and only while no retransmitted
       message sits ahead in the queue.  After a go-back-N round a
       never-retransmitted message can ride behind retransmitted ones,
       and a cumulative ack covering it may have been triggered by any
       copy of those: it cannot date the later message either.
       (Messages beyond the acked prefix can never yield a sample, so
       fusing sampling into the trim makes each ack O(acked) where the
       historical separate Karn scan was O(in-flight window).) *)
    let clean = ref true in
    let trimmed = ref false in
    while (not (Queue.is_empty ch.unacked)) && (Queue.peek ch.unacked).seq <= upto do
      let m = Queue.pop ch.unacked in
      trimmed := true;
      if m.attempts > 0 then clean := false
      else if !clean then Rtt.observe ch.out_rtt (now - m.first_sent_at)
    done;
    if !trimmed then begin
      (* New data acked: restart the retransmission timer (RFC 6298
         §5.3).  Left running, the timer armed for a message long since
         acked fires under steady traffic and go-back-N resends the whole
         window on a lossless path. *)
      Option.iter Backend.cancel ch.rto_timer;
      ch.rto_timer <- None;
      arm_rto t ~dst:src ch
    end

(* Record that [src] is owed a cumulative ack.  The dedicated frame goes
   out only if no reverse data frame has carried the ack when the
   (short, well under the minimum RTO) delayed-ack timer fires. *)
and note_ack_owed t ~src ch =
  ch.ack_owed <- true;
  if ch.ack_timer = None then begin
    let my_epoch = t.my_epoch in
    ch.ack_timer <-
      Some
        (Backend.schedule (backend t) ~delay:ack_timer_us (fun () ->
             ch.ack_timer <- None;
             if t.is_alive && t.my_epoch = my_epoch && ch.ack_owed then begin
               ch.ack_owed <- false;
               (match t.tracer with
               | Some tr when Tracer.wants tr Event.Transport ->
                 Tracer.emit tr
                   (Event.Ack_send { site = t.my_site; dst = src; upto = ch.next_deliver - 1 })
               | Some _ | None -> ());
               transmit t ~dst:src
                 (Ack { epoch = t.my_epoch; gen = ch.in_gen; upto = ch.next_deliver - 1 })
             end))
  end

and handle_data t ~src ~gen ~seq ~frag ~nfrags ~payload ~sink =
  let ch = in_chan t src in
  if gen < ch.in_gen then () (* leftovers of a generation the sender abandoned *)
  else begin
    if gen > ch.in_gen then begin
      (* The sender gave up on the previous generation (and reported a
         failure on its side); whatever was undelivered is gone.  Start
         the new FIFO stream cleanly. *)
      ch.in_gen <- gen;
      ch.next_deliver <- 0;
      Hashtbl.reset ch.pending
    end;
    if seq < ch.next_deliver then
      (* Duplicate of something already delivered: re-ack so the sender
         stops resending. *)
      note_ack_owed t ~src ch
    else begin
      let partial =
        match Hashtbl.find_opt ch.pending seq with
        | Some p -> p
        | None ->
          let p = { nfrags; got = Array.make (max nfrags 1) false; payload = None } in
          Hashtbl.replace ch.pending seq p;
          p
      in
      if frag >= 0 && frag < Array.length partial.got then partial.got.(frag) <- true;
      (match payload with Some _ -> partial.payload <- payload | None -> ());
      (* Release every complete in-order message into the batch. *)
      let complete p = Array.for_all Fun.id p.got in
      let made_progress = ref false in
      let corrupt = ref false in
      let rec drain () =
        match Hashtbl.find_opt ch.pending ch.next_deliver with
        | Some p when complete p -> (
          match p.payload with
          | Some v ->
            Hashtbl.remove ch.pending ch.next_deliver;
            ch.next_deliver <- ch.next_deliver + 1;
            made_progress := true;
            sink := v :: !sink;
            drain ()
          | None ->
            (* Fragment 0 always carries the payload, so a complete
               partial without one means the reassembly state is
               corrupt.  Channel-fatal, not process-fatal: delivering
               on would hand garbage up, and skipping the message would
               silently break FIFO. *)
            corrupt := true)
        | Some _ | None -> ()
      in
      drain ();
      if !corrupt then
        fail_in_channel t ~src ch ~reason:"complete message with no payload fragment"
      else if !made_progress then note_ack_owed t ~src ch
    end
  end

and handle_pong t ~src ~id =
  match Hashtbl.find_opt t.monitors src with
  | None -> ()
  | Some mon -> (
    match mon.outstanding with
    | Some (expected, sent_at) when expected = id ->
      mon.outstanding <- None;
      mon.missed <- 0;
      Rtt.observe mon.mon_rtt (Backend.now (backend t) - sent_at);
      if mon.suspected then begin
        mon.suspected <- false;
        t.on_recovery src
      end
    | Some _ | None -> ())

(* Test hook.  The reassembly invariant "a complete message holds its
   payload fragment" cannot be violated by any wire behaviour — fragment
   0 always carries the payload, and loss/dup/reorder can delay or drop
   frames but never strip one — so the defensive teardown in the drain
   is not organically reachable.  This forges a complete payload-less
   partial at the delivery watermark and runs the real drain over it,
   letting the regression test pin the channel-fatal behaviour. *)
let inject_reassembly_corruption t ~src =
  let ch = in_chan t src in
  Hashtbl.replace ch.pending ch.next_deliver
    { nfrags = 1; got = Array.make 1 true; payload = None };
  let sink = ref [] in
  handle_data t ~src ~gen:ch.in_gen ~seq:ch.next_deliver ~frag:(-1) ~nfrags:1 ~payload:None ~sink;
  assert (!sink = [])

let send t ~dst p =
  if t.is_alive then begin
    if dst = t.my_site then begin
      (* Local loop: one intra-site hop, no sequencing needed. *)
      let my_epoch = t.my_epoch in
      ignore
        (Backend.schedule (backend t)
           ~delay:(Backend.intra_site_us t.fabric.fbk)
           (fun () ->
             if t.is_alive && t.my_epoch = my_epoch then
               match t.receiver with Some deliver -> deliver ~src:t.my_site [ p ] | None -> ()))
    end
    else launch_msg t ~dst (out_chan t dst) p
  end

(* --- Failure detection --- *)

let rec schedule_ping t ~site mon =
  let my_epoch = t.my_epoch in
  mon.mon_timer <-
    Some
      (Backend.schedule (backend t) ~delay:t.cfg.ping_interval_us (fun () ->
           mon.mon_timer <- None;
           if t.is_alive && t.my_epoch = my_epoch && mon.active then send_ping t ~site mon))

and send_ping t ~site mon =
  let id = t.next_ping_id in
  t.next_ping_id <- id + 1;
  mon.outstanding <- Some (id, Backend.now (backend t));
  transmit t ~dst:site (Ping { epoch = t.my_epoch; id });
  let my_epoch = t.my_epoch in
  let timeout = Rtt.timeout_us mon.mon_rtt in
  ignore
    (Backend.schedule (backend t) ~delay:timeout (fun () ->
         if t.is_alive && t.my_epoch = my_epoch && mon.active then begin
           (match mon.outstanding with
           | Some (expected, _) when expected = id ->
             (* Probe lost or peer slow: back the timeout off and count
                the miss. *)
             mon.outstanding <- None;
             mon.missed <- mon.missed + 1;
             Rtt.backoff mon.mon_rtt
           | Some _ | None -> ());
           if mon.missed >= t.cfg.suspect_after && not mon.suspected then begin
             (* Declare the suspicion but KEEP probing: a suspicion of a
                site that is merely unreachable (loss window, partition)
                must be revocable, or a stale report circulates forever
                once the network heals.  Probing stops only when the
                membership layer calls [unmonitor] — i.e. the view
                really evicted the site. *)
             mon.suspected <- true;
             t.on_failure site;
             if mon.active then schedule_ping t ~site mon
           end
           else schedule_ping t ~site mon
         end))

let monitor t ~site =
  if t.is_alive && not (Hashtbl.mem t.monitors site) && site <> t.my_site then begin
    let mon =
      {
        mon_rtt = Rtt.create ();
        missed = 0;
        outstanding = None;
        mon_timer = None;
        active = true;
        suspected = false;
      }
    in
    Hashtbl.replace t.monitors site mon;
    send_ping t ~site mon
  end

let unmonitor t ~site =
  match Hashtbl.find_opt t.monitors site with
  | None -> ()
  | Some mon ->
    mon.active <- false;
    Option.iter Backend.cancel mon.mon_timer;
    mon.mon_timer <- None;
    Hashtbl.remove t.monitors site

let rtt_us t ~site =
  match Hashtbl.find_opt t.monitors site with
  | Some mon when Rtt.samples mon.mon_rtt > 0 -> Some (Rtt.srtt_us mon.mon_rtt)
  | Some _ | None -> None

let out_rtt_stats t ~dst =
  match Hashtbl.find_opt t.outs dst with
  | Some ch -> Some (Rtt.samples ch.out_rtt, Rtt.srtt_us ch.out_rtt)
  | None -> None

let crash t =
  t.is_alive <- false;
  Hashtbl.iter (fun _ ch -> Option.iter Backend.cancel ch.rto_timer) t.outs;
  Hashtbl.iter (fun _ ch -> cancel_ack_timer ch) t.ins;
  Hashtbl.iter (fun _ mon -> Option.iter Backend.cancel mon.mon_timer) t.monitors;
  Hashtbl.reset t.outs;
  Hashtbl.reset t.ins;
  Hashtbl.reset t.sendqs;
  Hashtbl.reset t.monitors

let restart t =
  if t.is_alive then invalid_arg "Endpoint.restart: endpoint is alive";
  t.is_alive <- true;
  t.my_epoch <- t.my_epoch + 1;
  Hashtbl.reset t.outs;
  Hashtbl.reset t.ins;
  Hashtbl.reset t.sendqs;
  Hashtbl.reset t.out_gens;
  Hashtbl.reset t.peer_epochs;
  Hashtbl.reset t.monitors
