(* The data path as a step function: every decision origination,
   delivery and stability make for one group copy, with the effects in
   the order the interpreter must run them.  Helpers take the effects
   so far, newest first, and return them with theirs added. *)

open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Event = Vsync_obs.Event

type 'o send = { owner : 'o option; mode : mode; body : Message.t; ack : bool }
type env = { window : int; fresh : unit -> uid; wants : Event.cls -> bool }

type ('o, 'x) effect =
  | Send of int * Proto.frame
  | Mcast of int list * Proto.frame
  | Deliver of Message.t * Addr.proc list
  | Note of Event.t
  | Init_done of 'o
  | Outstanding of 'o * uid
  | Settled of 'o * uid
  | Gbcast_start of uid * Message.t
  | Admit
  | Other of 'x

type 'o input =
  | Accept
  | Multicast of 'o send
  | Retire of Proto.frame
  | Install of Proto.frame
  | Unblock
  | Discard

(* A multicast this site originated in the current view that some
   remote member has not acknowledged yet, with its [ack] flag: an
   ABCAST reaches the origin's store only once delivered there, and a
   member's [Deliver_ack] can come first. *)
type 'o unstable = {
  mutable remaining : int list;
  u_owner : 'o option;
  u_dests : int list;
  u_ack : bool;
}

(* An ABCAST as the ordering engine buffers it: the body and the [ack]
   flag of its [Ab_data]. *)
type ab = { ab_body : Message.t; ab_ack : bool }

(* An ABCAST round this site originated that is still collecting
   proposed priorities. *)
type collect = { mutable expect : int list; mutable best : prio }

type 'o state = {
  mutable causal : Message.t Causal.t;
  mutable total : ab Total.t;
  mutable store : Proto.stored Uid_map.t;
  mutable unstables : 'o unstable Uid_map.t;
  mutable collects : collect Uid_map.t;
  ab_queue : ('o option * Message.t) Queue.t;
      (* ABCASTs waiting for a window slot *)
  mutable ab_inflight : int;
  mutable accepted : int;
      (* sends of any mode on the CPU queue, not yet handed on: with
         [ab_queue] the backlog admission bounds *)
  mutable blocked : 'o send list; (* deferred by a wedge, newest first *)
  mutable failed_procs : Addr.proc list;
      (* processes a past view change removed as FAILED.  Failures are
         clean: a falsely suspected process is still alive and keeps
         multicasting, directly or through a relay, so origination drops
         its sends until a rejoin clears it *)
}

let create (fl : Flush.state) =
  { causal = Causal.create ~n_ranks:(View.n_members fl.view) ();
    total = Total.create ~site:fl.me (); store = Uid_map.empty; unstables = Uid_map.empty;
    collects = Uid_map.empty; ab_queue = Queue.create (); ab_inflight = 0; accepted = 0;
    blocked = []; failed_procs = [] }

let gid (fl : Flush.state) = fl.view.View.group
let view_id (fl : Flush.state) = fl.view.View.view_id
let remote_sites (fl : Flush.state) = List.filter (fun s -> s <> fl.me) (View.sites fl.view)
let init_done owner acc = match owner with Some p -> Init_done p :: acc | None -> acc
let settled owner uid acc = match owner with Some p -> Settled (p, uid) :: acc | None -> acc

(* Trace events, built only while [env.wants Event.Proto] holds. *)
let delivered (fl : Flush.state) u =
  Event.Deliver { site = fl.me; group = Addr.group_to_int (gid fl); usite = u.usite; useq = u.useq }
let stabilized (fl : Flush.state) u = Event.Stabilize { site = fl.me; usite = u.usite; useq = u.useq }
let originated (fl : Flush.state) proto u =
  Event.Originate { site = fl.me; proto; group = Addr.group_to_int (gid fl); usite = u.usite; useq = u.useq }
let voted (fl : Flush.state) voter u prio = Event.Ab_vote { site = fl.me; voter; usite = u.usite; useq = u.useq; prio }
let committed (fl : Flush.state) u prio = Event.Ab_commit { site = fl.me; usite = u.usite; useq = u.useq; prio }

type fate = Drop | Defer | Originate

let fate fl st body =
  match Message.sender body with
  | Some s when List.exists (Addr.equal_proc s) st.failed_procs -> Drop
  | Some _ | None -> if Flush.wedged fl then Defer else Originate

(* --- stability --- *)

(* A stable multicast's dedup record can go: every destination
   delivered it, and (per-channel FIFO, per-sender delivery order in
   each engine) everything earlier from its origin site was delivered
   everywhere first.  The engine is read off the store entry: advancing
   the other engine's watermark could cover a uid of that protocol still
   in flight. *)
let reclaim env (fl : Flush.state) st uid acc =
  let reclaimed =
    match Uid_map.find_opt uid st.store with
    | Some (Proto.Scb _) -> Causal.stabilized st.causal uid; true
    | Some (Proto.Sab _) -> Total.stabilized st.total uid; true
    | None -> false
  in
  if reclaimed && env.wants Event.Proto then Note (Event.Gc_reclaim { site = fl.me; n = 1 }) :: acc else acc

(* Acknowledgement is cumulative, one rule for both engines.  Every
   multicast carries an [ack] flag, clear on all but the last CBCAST of
   a packed run and the last round of an ABCAST burst, whose uids are
   consecutive.  Only a flagged uid is acknowledged on its own: its
   delivery owes the origin a [Deliver_ack], and its stability owes the
   destinations a [Stable].  Either frame for a flagged uid settles it
   and the consecutive unflagged uids below it from its origin.  A
   site delivers its origin's multicasts of one view in useq order
   within each engine (DESIGN.md §4.7), so those were delivered first,
   and the runs and bursts below were settled first, each by its own
   flagged uid.  The origin reads the flags off its unstable records,
   every other site off its store copies. *)
let stored_unflagged st uid =
  match Uid_map.find_opt uid st.store with
  | Some (Proto.Scb { ack; _ } | Proto.Sab { ack; _ }) -> not ack
  | None -> false

let unstable_unflagged st uid =
  match Uid_map.find_opt uid st.unstables with Some u -> not u.u_ack | None -> false

let acked st uid = not (stored_unflagged st uid)

(* The uids a [Deliver_ack] or [Stable] for [uid] settles, oldest
   first. *)
let covered unflagged st uid =
  let rec run acc u =
    let v = { u with useq = u.useq - 1 } in
    if unflagged st v then run (v :: acc) v else acc
  in
  run [ uid ] uid

let check_stable env fl st uid u acc =
  if u.remaining <> [] then acc
  else begin
    st.unstables <- Uid_map.remove uid st.unstables;
    let acc = if env.wants Event.Proto then Note (stabilized fl uid) :: acc else acc in
    let acc = if u.u_ack then Mcast (u.u_dests, Proto.Stable { group = gid fl; uid }) :: acc else acc in
    let acc = reclaim env fl st uid acc in
    st.store <- Uid_map.remove uid st.store;
    settled u.u_owner uid acc
  end

let on_deliver_ack env fl st ~src uid acc =
  List.fold_left
    (fun acc uid ->
      match Uid_map.find_opt uid st.unstables with
      | None -> acc
      | Some u ->
        u.remaining <- List.filter (fun s -> s <> src) u.remaining;
        check_stable env fl st uid u acc)
    acc (covered unstable_unflagged st uid)

let on_stable env fl st uid acc =
  let traced = env.wants Event.Proto in
  List.fold_left
    (fun acc u ->
      let acc = if traced && not (uid_equal u uid) then Note (stabilized fl u) :: acc else acc in
      let acc = reclaim env fl st u acc in
      st.store <- Uid_map.remove u st.store;
      acc)
    (if traced then
       Note (Event.Stable_advance { site = fl.Flush.me; origin = uid.usite; upto = uid.useq })
       :: Note (stabilized fl uid) :: acc
     else acc)
    (covered stored_unflagged st uid)

(* The unstable records are settled wholesale (a view installed, or the
   copy goes): forget them and the open collections. *)
let settle st acc =
  let all = st.unstables in
  st.unstables <- Uid_map.empty;
  st.collects <- Uid_map.empty;
  Uid_map.fold (fun uid u acc -> settled u.u_owner uid acc) all acc

(* --- the engines --- *)

(* A stored CBCAST goes to the causal engine against its vector time
   when the origin stamped one, in per-sender FIFO order otherwise. *)
let causal_receive st ~uid ~rank ~vt body =
  match vt with
  | Some l when rank >= 0 -> Causal.receive st.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
  | Some _ | None -> Causal.receive_fifo st.causal ~uid body

let deliver env fl st uid body acc =
  let acc = if env.wants Event.Proto then Note (delivered fl uid) :: acc else acc in
  let acc = Deliver (body, fl.Flush.view.View.members) :: acc in
  if uid.usite = fl.Flush.me then
    match Uid_map.find_opt uid st.unstables with Some u -> check_stable env fl st uid u acc | None -> acc
  else if acked st uid then Send (uid.usite, Proto.Deliver_ack { group = gid fl; uid }) :: acc
  else acc

(* Deliver everything the engines release.  A finalized ABCAST stays in
   the store, under its true final priority, until stable: if a wedge
   comes first, the wedge ack quotes it, and the flush must re-commit it
   at the same priority wherever it is missing. *)
let drain env fl st acc =
  let acc = List.fold_left (fun acc (uid, body) -> deliver env fl st uid body acc) acc (Causal.drain st.causal) in
  List.fold_left
    (fun acc (uid, prio, { ab_body = body; ab_ack = ack }) ->
      if not (Uid_map.mem uid st.store) then
        st.store <- Uid_map.add uid (Proto.Sab { uid; prio; ack; body }) st.store;
      deliver env fl st uid body acc)
    acc (Total.drain st.total)

(* --- origination --- *)

let mark_unstable st uid ~remote ~owner ~ack acc =
  if remote = [] then acc
  else begin
    st.unstables <-
      Uid_map.add uid { remaining = remote; u_owner = owner; u_dests = remote; u_ack = ack } st.unstables;
    match owner with Some p -> Outstanding (p, uid) :: acc | None -> acc
  end

(* The sender delivers its own CBCAST at once: the primitive looks
   instantaneous to it, which is the heart of the asynchronous style. *)
let origin_cbcast env fl st ~owner ~ack body acc =
  let uid = env.fresh () in
  let view = fl.Flush.view in
  (* The timestamp's rank: the sending member if local, else the oldest
     local member (relay). *)
  let rank =
    match Message.sender body with
    | Some s when View.is_member view s -> View.rank view s
    | Some _ | None -> (
      match View.members_at_site view fl.me with m :: _ -> View.rank view m | [] -> -1)
  in
  let vt = if rank >= 0 then Some (Vsync_util.Vclock.to_list (Causal.stamp st.causal ~rank)) else None in
  let remote = remote_sites fl in
  let acc = if env.wants Event.Proto then Note (originated fl "cbcast" uid) :: acc else acc in
  let acc =
    if remote = [] then acc
    else begin
      st.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; ack; body }) st.store;
      Causal.note_sent st.causal uid;
      let acc = mark_unstable st uid ~remote ~owner ~ack acc in
      Mcast (remote, Proto.Cb_data { group = gid fl; view_id = view_id fl; uid; rank; vt; ack; body })
      :: acc
    end
  in
  Deliver (body, view.View.members)
  :: (if env.wants Event.Proto && View.hosts view fl.me then Note (delivered fl uid) :: acc else acc)

(* A purely local round commits and stabilizes on the spot. *)
let origin_abcast env fl st ~owner ~ack body acc =
  let uid = env.fresh () in
  let remote = remote_sites fl in
  let acc = if env.wants Event.Proto then Note (originated fl "abcast" uid) :: acc else acc in
  let my_prio = Total.intake st.total ~uid { ab_body = body; ab_ack = ack } in
  let acc = mark_unstable st uid ~remote ~owner ~ack acc in
  if remote = [] then begin
    Total.commit st.total ~uid my_prio;
    let acc = drain env fl st acc in
    let acc = reclaim env fl st uid (if env.wants Event.Proto then Note (stabilized fl uid) :: acc else acc) in
    st.store <- Uid_map.remove uid st.store;
    acc
  end
  else begin
    st.ab_inflight <- st.ab_inflight + 1;
    st.collects <- Uid_map.add uid { expect = remote; best = my_prio } st.collects;
    Mcast (remote, Proto.Ab_data { group = gid fl; view_id = view_id fl; uid; ack; body }) :: acc
  end

(* At most [window] ABCAST rounds collect votes at once; the rest queue.
   Rounds launched in one event share packets all the way round, while
   one round per freed slot would never share one.  So while rounds are
   in flight a burst leaves only when half the window is free and the
   backlog can fill it (two half-window bursts overlap, and the
   originator never idles for a round trip); an empty pipeline
   dispatches at once.  An owner's send is done when its round leaves,
   so [flush] still covers queued sends.  The burst's uids are
   consecutive, and only its last round carries the [ack] flag, so it
   costs one [Deliver_ack] per member and one [Stable] per destination;
   a burst of one keeps its own pair. *)
let dispatch env fl st acc =
  let window = env.window and queued = Queue.length st.ab_queue in
  let quantum = (window + 1) / 2 in
  if
    (not (Flush.wedged fl))
    && queued > 0
    && (st.ab_inflight = 0 || (window - st.ab_inflight >= quantum && queued >= quantum))
  then begin
    let rec go acc =
      if st.ab_inflight >= window then acc
      else
        match Queue.take_opt st.ab_queue with
        | Some (owner, body) ->
          let ack = st.ab_inflight + 1 >= window || Queue.is_empty st.ab_queue in
          go (init_done owner (origin_abcast env fl st ~owner ~ack body acc))
        | None -> acc
    in
    Admit :: go acc
  end
  else acc

let originate env fl st s acc =
  match fate fl st s.body with
  | Drop -> init_done s.owner acc
  | Defer ->
    (* rerun alone after the install, so it carries its own ack *)
    st.blocked <- { s with ack = true } :: st.blocked;
    acc
  | Originate -> (
    match s.mode with
    | Cbcast -> init_done s.owner (origin_cbcast env fl st ~owner:s.owner ~ack:s.ack s.body acc)
    | Abcast ->
      Queue.push (s.owner, s.body) st.ab_queue;
      dispatch env fl st acc
    | Gbcast ->
      let uid = env.fresh () in
      let acc = if env.wants Event.Proto then Note (originated fl "gbcast" uid) :: acc else acc in
      init_done s.owner (Gbcast_start (uid, s.body) :: acc))

(* A vote counts once per sender.  A frame for a wedged copy never gets
   here: the flush finalizes those rounds. *)
let on_ab_prio env fl st ~src uid prio acc =
  match Uid_map.find_opt uid st.collects with
  | None -> acc (* finished, or superseded by a flush *)
  | Some c ->
    let acc = if env.wants Event.Proto then Note (voted fl src uid (fst prio)) :: acc else acc in
    c.best <- prio_max c.best prio;
    c.expect <- List.filter (fun s -> s <> src) c.expect;
    if c.expect <> [] then acc
    else begin
      st.collects <- Uid_map.remove uid st.collects;
      st.ab_inflight <- max 0 (st.ab_inflight - 1);
      let acc = if env.wants Event.Proto then Note (committed fl uid (fst c.best)) :: acc else acc in
      let acc =
        Mcast (remote_sites fl, Proto.Ab_commit { group = gid fl; view_id = view_id fl; uid; prio = c.best }) :: acc
      in
      Total.commit st.total ~uid c.best;
      (* the freed slot, with any others this packet frees, dispatches *)
      dispatch env fl st (drain env fl st acc)
    end

let on_frame env fl st ~src frame acc =
  match frame with
  | Proto.Cb_data { uid; rank; vt; ack; body; _ } ->
    (* A duplicate (retransmit, or a replay of something already
       stabilized) must not re-create a store copy stability collected. *)
    if Causal.seen st.causal uid then acc
    else begin
      st.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; ack; body }) st.store;
      causal_receive st ~uid ~rank ~vt body;
      drain env fl st acc
    end
  | Proto.Ab_data { group; view_id; uid; ack; body } ->
    let prio = Total.intake st.total ~uid { ab_body = body; ab_ack = ack } in
    Send (src, Proto.Ab_prio { group; view_id; uid; prio }) :: acc
  | Proto.Ab_prio { uid; prio; _ } -> on_ab_prio env fl st ~src uid prio acc
  | Proto.Ab_commit { uid; prio; _ } ->
    Total.commit st.total ~uid prio;
    drain env fl st acc
  | Proto.Deliver_ack { uid; _ } -> on_deliver_ack env fl st ~src uid acc
  | Proto.Stable { uid; _ } -> on_stable env fl st uid acc
  | _ -> acc

(* --- view changes --- *)

(* Delivery at the synchronization point discharges a message's
   protocol state, so it is reported stable there. *)
let discharge env (fl : Flush.state) acc uid body =
  Deliver (body, fl.view.View.members)
  :: (if env.wants Event.Proto then Note (stabilized fl uid) :: Note (delivered fl uid) :: acc else acc)

(* Settle the retiring view as the commit says, then deliver everything
   it holds. *)
let retire env fl st = function
  | Proto.Commit { stabilize; ab_finalize; ab_drop; _ } ->
    List.iter
      (function
        | Proto.Scb { uid; rank; vt; body; _ } ->
          if not (Causal.seen st.causal uid) then causal_receive st ~uid ~rank ~vt body
        | Proto.Sab { uid; prio; ack; body } ->
          Total.commit st.total ~uid prio;
          Total.add_payload st.total ~uid { ab_body = body; ab_ack = ack })
      stabilize;
    List.iter (fun (uid, prio) -> Total.commit st.total ~uid prio) ab_finalize;
    (* Only an uncommitted ABCAST can be dropped; a committed one is
       delivered below. *)
    let uncommitted () =
      List.filter_map (fun (u, _, committed, _) -> if committed then None else Some u) (Total.pending st.total)
    in
    let droppable = Uid_set.of_list (uncommitted ()) in
    List.iter (fun uid -> if Uid_set.mem uid droppable then Total.drop st.total ~uid) ab_drop;
    let acc = List.fold_left (fun acc (u, b) -> discharge env fl acc u b) [] (Causal.force_drain st.causal) in
    let acc = List.fold_left (fun acc (u, _, a) -> discharge env fl acc u a.ab_body) acc (Total.drain st.total) in
    (* Anything still uncommitted is garbage. *)
    List.iter (fun uid -> Total.drop st.total ~uid) (uncommitted ());
    acc
  | _ -> []

(* Fresh engines and store for the new view.  Failure is sticky until a
   rejoin.  The flush settled every round of the old view, so the
   pipeline restarts empty, and queued ABCASTs dispatch before the
   deferred sends rerun, which keeps acceptance order.  The commit's
   GBCASTs are delivered last, at the synchronization point. *)
let install env (fl : Flush.state) st = function
  | Proto.Commit { events; gb_bodies; _ } ->
    st.causal <- Causal.create ~n_ranks:(View.n_members fl.view) ();
    st.total <- Total.create ~site:fl.me ();
    st.store <- Uid_map.empty;
    st.failed_procs <-
      List.fold_left
        (fun acc ev ->
          match ev with
          | View.Member_failed p -> p :: acc
          | View.Member_joined p -> List.filter (fun q -> not (Addr.equal_proc q p)) acc
          | View.Member_left _ -> acc)
        st.failed_procs events;
    let acc = settle st [] in
    st.ab_inflight <- 0;
    List.fold_left (fun acc (uid, body) -> discharge env fl acc uid body) (dispatch env fl st acc) gb_bodies
  | _ -> []

let discard st =
  let acc = List.fold_left (fun acc s -> init_done s.owner acc) [] (List.rev st.blocked) in
  st.blocked <- [];
  let acc = Queue.fold (fun acc (owner, _) -> init_done owner acc) acc st.ab_queue in
  Queue.clear st.ab_queue;
  settle st acc

(* The helpers build effects newest first. *)
let ordered acc = match acc with [] | [ _ ] -> acc | _ :: _ :: _ -> List.rev acc

let frame env fl st ~src frame = ordered (on_frame env fl st ~src frame [])

let hand_off env fl st s =
  st.accepted <- st.accepted - 1;
  ordered (originate env fl st s [])

let step env fl st input =
  ordered
    (match input with
    | Accept ->
      st.accepted <- st.accepted + 1;
      []
    | Multicast s -> originate env fl st s []
    | Retire commit -> retire env fl st commit
    | Install commit -> install env fl st commit
    | Unblock ->
      let sends = List.rev st.blocked in
      st.blocked <- [];
      List.fold_left (fun acc s -> originate env fl st s acc) [] sends
    | Discard -> discard st)

(* Two windows of backlog is one in flight plus one ready, so the
   half-window bursts of [dispatch] always find work; any more only
   lengthens the FIFO CPU queue in front of the receptions that finish
   rounds and acknowledge CBCASTs.  The rule paces every primitive: a
   CBCAST flood would otherwise grow the CPU queue without bound. *)
let overloaded env st = st.accepted + Queue.length st.ab_queue >= 2 * env.window

let wedge_ack (fl : Flush.state) st ~attempt =
  let report uid prio committed =
    { Proto.ab_uid = uid; ab_prio = prio; ab_committed = committed; ab_origin = uid.usite }
  in
  let cb_known, ab_store =
    Uid_map.fold
      (fun uid s (cb, ab) ->
        match s with
        | Proto.Scb _ -> (uid :: cb, ab)
        | Proto.Sab { prio; _ } -> (cb, report uid prio true :: ab))
      st.store ([], [])
  in
  let ab_pending =
    List.map (fun (uid, prio, committed, _) -> report uid prio committed) (Total.pending st.total)
  in
  Proto.Wedge_ack
    { group = gid fl; view_id = view_id fl; attempt; from_site = fl.me; cb_known;
      ab_report = ab_store @ ab_pending; ab_counter = Total.counter st.total; already_committed = None }

let bodies st uids =
  List.partition_map
    (fun u ->
      match Uid_map.find_opt u st.store with
      | Some s -> Either.Left s
      | None -> (
        match Total.payload_of st.total u with
        | Some { ab_body = body; ab_ack = ack } -> Either.Left (Proto.Sab { uid = u; prio = (0, 0); ack; body })
        | None -> Either.Right u))
    uids

let accepted st = st.accepted
let queued st = Queue.length st.ab_queue
let inflight st = st.ab_inflight
let unstable st = Uid_map.cardinal st.unstables
let stored st = Uid_map.cardinal st.store
let dedup_residue st = Causal.dedup_residue st.causal + Total.dedup_residue st.total
