module Backend = Vsync_backend.Backend
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event

type site = int

(* A monitored site is probed every [ping_interval_us] and suspected
   after [suspect_after] lost probes in a row; every frame is charged a
   [frame_header_bytes] header on the wire; a channel fails when one of
   its messages would be resent more than [max_retransmits] times. *)
let ping_interval_us = 500_000
let suspect_after = 4
let frame_header_bytes = 24
let max_retransmits = 16

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
  mutable refs : int; (* [monitor] calls not yet matched by [unmonitor]; 0 once stopped *)
  mutable missed : int;
  mutable outstanding : (int * int) option; (* ping id, sent at (backend µs) *)
  mutable mon_timer : Backend.handle option;
  mutable suspected : bool;
      (* failure declared but probing continues: a later pong revokes
         the suspicion via [on_recovery].  A suspicion is a verdict
         about the recent past, not the future — only [unmonitor]
         (membership says the site is really gone) stops the probes. *)
}

(* Everything this endpoint knows about one remote site. *)
type 'p peer = {
  mutable out : 'p out_chan option;
  mutable inb : 'p in_chan option;
  staged : 'p sendq;
  mutable next_gen : int; (* generation of the next re-opened out channel *)
  mutable peer_epoch : int; (* last incarnation seen; 0 before first contact *)
  mutable mon : monitor_state option;
}

let new_peer () =
  let staged = { sq = Queue.create (); flush_scheduled = false } in
  { out = None; inb = None; staged; next_gen = 0; peer_epoch = 0; mon = None }

type 'p t = {
  fabric : 'p fabric;
  my_site : site;
  size : 'p -> int;
  mutable my_epoch : int;
  mutable is_alive : bool;
  mutable receiver : (src:site -> 'p list -> unit) option;
  mutable on_failure : site -> unit;
  mutable on_recovery : site -> unit;
  mutable on_peer_restart : site -> unit;
  peers : 'p peer array; (* indexed by site; our own entry stays empty *)
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

let create fabric ~site ~size =
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
      my_epoch = 1;
      is_alive = true;
      receiver = None;
      on_failure = (fun _ -> ());
      on_recovery = (fun _ -> ());
      on_peer_restart = (fun _ -> ());
      peers = Array.init (Array.length fabric.endpoints) (fun _ -> new_peer ());
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
let sum_peers t f = Array.fold_left (fun acc p -> acc + f p) 0 t.peers

let inflight t =
  sum_peers t (fun p -> match p.out with Some ch -> Queue.length ch.unacked | None -> 0)

let recv_pending t =
  sum_peers t (fun p -> match p.inb with Some ch -> Hashtbl.length ch.pending | None -> 0)

(* Quiescence gauge: every staged frame flushes within its engine
   instant. *)
let sendq_depth t = sum_peers t (fun p -> Queue.length p.staged.sq)

let frame_bytes = function
  | Data { chunk; _ } -> chunk + frame_header_bytes
  | Ack _ | Ping _ | Pong _ -> frame_header_bytes

let cancel_ack_timer ch =
  Option.iter Backend.cancel ch.ack_timer;
  ch.ack_timer <- None

(* Forget the channels to [p]'s current incarnation: cancel their
   timers and drop its unacked, undelivered and staged frames (a flush
   already scheduled finds the staging queue empty). *)
let drop_channels p =
  Option.iter (fun ch -> Option.iter Backend.cancel ch.rto_timer) p.out;
  Option.iter cancel_ack_timer p.inb;
  Queue.clear p.staged.sq;
  p.out <- None;
  p.inb <- None

(* Stamp the piggybacked cumulative ack for [dst] onto an outgoing data
   frame, at wire time.  Clearing [ack_owed] suppresses the pending
   delayed-ack timer shot: the reverse traffic has carried the ack. *)
let stamp_ack t ~dst frame =
  match frame with
  | Data d -> (
    match t.peers.(dst).inb with
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
  let chunk_cap = Backend.max_packet_bytes t.fabric.fbk - frame_header_bytes in
  let rec chunks remaining acc =
    if remaining <= chunk_cap then List.rev (remaining :: acc)
    else chunks (remaining - chunk_cap) (chunk_cap :: acc)
  in
  chunks (max total 0) []

(* Forward declaration dance: transmit needs handle_packet of the peer. *)
let rec transmit t ~dst frame =
  if t.is_alive then begin
    let q = t.peers.(dst).staged in
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
      let fb = frame_bytes f in
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
  let p = t.peers.(dst) in
  match p.out with
  | Some ch -> ch
  | None ->
    let ch =
      {
        gen = p.next_gen;
        next_seq = 0;
        unacked = Queue.create ();
        out_rtt = Rtt.create ();
        rto_timer = None;
      }
    in
    p.out <- Some ch;
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
  let p = t.peers.(src) in
  match p.inb with
  | Some ch -> ch
  | None ->
    let ch =
      { in_gen = 0; next_deliver = 0; pending = Hashtbl.create 8; ack_owed = false; ack_timer = None }
    in
    p.inb <- Some ch;
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
      Queue.fold (fun acc m -> acc || m.attempts + 1 > max_retransmits) false ch.unacked
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
  (* The next send to [dst] opens a fresh FIFO stream under gen+1; the
     receiver discards any leftovers of this generation when it sees it. *)
  let p = t.peers.(dst) in
  p.out <- None;
  p.next_gen <- ch.gen + 1;
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
  t.peers.(src).inb <- None;
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
    let p = t.peers.(src) in
    if frame_epoch < p.peer_epoch then () (* stale incarnation *)
    else begin
      if frame_epoch > p.peer_epoch then begin
        (* First contact adopts the peer's epoch; a newer one means the
           peer restarted, and all channel state for the old incarnation
           is garbage: unacked and staged traffic was addressed to it.
           The membership layer handles the fallout.  A restart can
           beat the failure detector (crash + revive inside the
           suspicion window), so whoever relied on the old incarnation
           must hear about it regardless.  The monitor's history is of
           the OLD incarnation too, so it restarts from scratch: a pong
           from the new incarnation must not retract the standing
           suspicion (a restart confirms the old one is dead for good),
           and a stale ping's backed-off timeout firing over a
           still-huge [missed] must not declare the new one down. *)
        let restarted = p.peer_epoch > 0 in
        p.peer_epoch <- frame_epoch;
        if restarted then begin
          drop_channels p;
          Option.iter
            (fun mon ->
              mon.suspected <- false;
              mon.missed <- 0;
              mon.outstanding <- None)
            p.mon;
          t.on_peer_restart src
        end
      end;
      match frame with
      | Ping { id; _ } -> transmit t ~dst:src (Pong { epoch = t.my_epoch; id })
      | Pong { id; _ } -> handle_pong t ~src ~id
      | Ack { gen; upto; _ } -> handle_ack t ~src ~gen ~upto
      | Data { gen; seq; frag; nfrags; payload; ack_gen; ack_upto; _ } ->
        if ack_upto >= 0 then handle_ack t ~src ~gen:ack_gen ~upto:ack_upto;
        handle_data t ~src ~gen ~seq ~frag ~nfrags ~payload ~sink
    end

and handle_ack t ~src ~gen ~upto =
  match t.peers.(src).out with
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
  match t.peers.(src).mon with
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
      (Backend.schedule (backend t) ~delay:ping_interval_us (fun () ->
           mon.mon_timer <- None;
           if t.is_alive && t.my_epoch = my_epoch && mon.refs > 0 then send_ping t ~site mon))

and send_ping t ~site mon =
  let id = t.next_ping_id in
  t.next_ping_id <- id + 1;
  mon.outstanding <- Some (id, Backend.now (backend t));
  transmit t ~dst:site (Ping { epoch = t.my_epoch; id });
  let my_epoch = t.my_epoch in
  let timeout = Rtt.timeout_us mon.mon_rtt in
  ignore
    (Backend.schedule (backend t) ~delay:timeout (fun () ->
         if t.is_alive && t.my_epoch = my_epoch && mon.refs > 0 then begin
           (match mon.outstanding with
           | Some (expected, _) when expected = id ->
             (* Probe lost or peer slow: back the timeout off and count
                the miss. *)
             mon.outstanding <- None;
             mon.missed <- mon.missed + 1;
             Rtt.backoff mon.mon_rtt
           | Some _ | None -> ());
           if mon.missed >= suspect_after && not mon.suspected then begin
             (* Declare the suspicion but KEEP probing: a suspicion of a
                site that is merely unreachable (loss window, partition)
                must be revocable, or a stale report circulates forever
                once the network heals.  Probing stops only when the
                membership layer calls [unmonitor] — i.e. the view
                really evicted the site. *)
             mon.suspected <- true;
             t.on_failure site;
             if mon.refs > 0 then schedule_ping t ~site mon
           end
           else schedule_ping t ~site mon
         end))

let monitor t ~site =
  if t.is_alive && site <> t.my_site then begin
    let p = t.peers.(site) in
    match p.mon with
    | Some mon -> mon.refs <- mon.refs + 1
    | None ->
      let mon =
        {
          mon_rtt = Rtt.create ();
          refs = 1;
          missed = 0;
          outstanding = None;
          mon_timer = None;
          suspected = false;
        }
      in
      p.mon <- Some mon;
      send_ping t ~site mon
  end

let stop_probing mon =
  mon.refs <- 0;
  Option.iter Backend.cancel mon.mon_timer

let unmonitor t ~site =
  let p = t.peers.(site) in
  match p.mon with
  | Some mon when mon.refs > 1 -> mon.refs <- mon.refs - 1
  | Some mon ->
    stop_probing mon;
    p.mon <- None
  | None -> ()

let rtt_us t ~site =
  match t.peers.(site).mon with
  | Some mon when Rtt.samples mon.mon_rtt > 0 -> Some (Rtt.srtt_us mon.mon_rtt)
  | Some _ | None -> None

let out_rtt_stats t ~dst =
  match t.peers.(dst).out with
  | Some ch -> Some (Rtt.samples ch.out_rtt, Rtt.srtt_us ch.out_rtt)
  | None -> None

let crash t =
  t.is_alive <- false;
  Array.iter
    (fun p ->
      drop_channels p;
      Option.iter stop_probing p.mon;
      p.mon <- None)
    t.peers

let restart t =
  if t.is_alive then invalid_arg "Endpoint.restart: endpoint is alive";
  t.is_alive <- true;
  t.my_epoch <- t.my_epoch + 1;
  Array.iteri (fun site _ -> t.peers.(site) <- new_peer ()) t.peers
