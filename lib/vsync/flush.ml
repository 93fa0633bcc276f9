(* The view change as a pure step function: every decision of the flush
   and of event routing, with its effects returned in the order they
   must run.  See the interface for the protocol; the comments here say
   why each rule is there. *)

open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Int_set = Set.Make (Int)

type event =
  | Ev_join of Addr.proc * Message.t
  | Ev_leave of Addr.proc
  | Ev_fail of Addr.proc * bool
  | Ev_gb of uid * Message.t

type ack = {
  a_cb_known : Uid_set.t;
  a_ab_uids : Uid_set.t;
  a_ab_report : Proto.ab_report list;
  a_ab_counter : int;
  a_already : Proto.frame option;
}

type resolution = {
  r_missing_cb : uid list;
  r_ab_finalize : (uid * prio) list;
  r_ab_drop : uid list;
  r_ab_missing : (uid * prio) list;
}

type phase =
  | Collecting of (int * ack) list
  | Fetching of { res : resolution; wait : int list; fetched : Proto.stored list }
  | Validating of { res : resolution; fetched : Proto.stored list }
  | Committed

type change = { c_attempt : int; c_batch : event list; c_sites : int list; c_phase : phase }
type wedge = { w_attempt : int; w_coord : int; w_epoch : int }
type minority = { m_attempt : int; m_rounds : int }

type state = {
  me : int;
  epoch : int;
  gname : string;
  view : View.t;
  suspects : Int_set.t;
  queue : event list;
  change : change option;
  wedge : wedge option;
  last_attempt : int;
  last_commit : Proto.frame option;
  minority : minority option;
  outstanding : (uid * Message.t) list;
  leaving : Addr.proc list;
}

type timer = Wedge_retry of int | Reroute | Repropose | Probe of int

type note =
  | Flush_started of int
  | Wedged
  | Fenced of { view_id : int; attempt : int; src : int }
  | No_coordinator
  | Body_missing of uid
  | Minority_entered of { survivors : int; needed : int }
  | Minority_left

type effect =
  | Send of int * Proto.frame
  | Ack_wedge of { dst : int; attempt : int }
  | Arm of int * timer
  | Note of note
  | Refuse_join of Addr.proc * string
  | Check_alive of { procs : Addr.proc list; rest : event list }
  | Validate of (Addr.proc * Message.t) list
  | Fetch_local of { attempt : int; uids : uid list }
  | Commit of int list * Proto.frame
  | Retire of Proto.frame
  | Install of { retiring : View.t option; commit : Proto.frame }
  | Probe_sites of int list
  | Teardown of { new_view_id : int; verdict : int; notify : int list }

type input =
  | Event of event
  | Gbcast of uid * Message.t
  | Frame of int * Proto.frame
  | Retired of Proto.frame
  | Installed of View.t
  | Site_down of { site : int; certain : bool }
  | Site_recovered of int
  | Timer of timer
  | Alive_here of { alive : Addr.proc list; rest : event list }
  | Refused of Addr.proc list

let create ~me ~epoch ~gname view =
  { me; epoch; gname; view; suspects = Int_set.empty; queue = []; change = None; wedge = None;
    last_attempt = 0; last_commit = None; minority = None; outstanding = []; leaving = [] }

(* Run [f] on the state a step leaves, appending its effects. *)
let ( >>= ) (st, effects) f =
  match f st with st, [] -> (st, effects) | st, more -> (st, effects @ more)

let none st = (st, [])
let gid st = st.view.View.group
let view_id st = st.view.View.view_id
let committed c = match c.c_phase with Committed -> true | _ -> false
let wedged st = match st.wedge with Some _ -> true | None -> false

(* Acting coordinator: the site of the oldest member whose site is not
   suspected here. *)
let acting_coord st =
  List.find_map
    (fun (m : Addr.proc) -> if Int_set.mem m.Addr.site st.suspects then None else Some m.Addr.site)
    st.view.View.members

let i_am_coord st = match acting_coord st with Some c -> c = st.me | None -> false

(* The sites of the view this site can still reach, self included: the
   set a coordinator wedges. *)
let component_sites st =
  let live = List.filter (fun s -> not (Int_set.mem s st.suspects)) (View.sites st.view) in
  List.sort_uniq compare (st.me :: live)

let send_wedges st ~attempt sites =
  List.map
    (fun dst ->
      Send (dst, Proto.Wedge { group = gid st; view_id = view_id st; attempt; coord_site = st.me;
                               coord_epoch = st.epoch }))
    sites

(* Tell [dst] which view is current: a sender still working in a dead
   lineage takes its partition-eviction path and rejoins. *)
let current_view st dst =
  Send (dst, Proto.View_probe_reply { group = gid st; view_id = view_id st })

(* --- the event queue --- *)

(* The only way into [queue]: an event already queued or in the running
   change's batch is dropped, so no batch carries one event twice. *)
let enqueue st ev =
  let in_flight pred =
    List.exists pred st.queue
    || match st.change with Some c -> List.exists pred c.c_batch | None -> false
  in
  let suspicion_of p = function Ev_fail (q, false) -> Addr.equal_proc p q | _ -> false in
  match ev with
  | Ev_fail (p, true) when List.exists (suspicion_of p) st.queue ->
    (* A certain death upgrades a queued suspicion of the same process
       in place: certainty matters to the quorum rule. *)
    { st with queue = List.map (fun e -> if suspicion_of p e then ev else e) st.queue }
  | _ ->
    let dup =
      match ev with
      | Ev_fail (p, certain) ->
        (* Only an equally- or more-certain record counts as a
           duplicate of a failure. *)
        in_flight (function
          | Ev_fail (q, c') -> Addr.equal_proc p q && (c' || not certain)
          | Ev_leave q -> Addr.equal_proc p q
          | Ev_join _ | Ev_gb _ -> false)
      | Ev_leave p ->
        in_flight (function
          | Ev_fail (q, _) | Ev_leave q -> Addr.equal_proc p q
          | Ev_join _ | Ev_gb _ -> false)
      | Ev_join (p, _) -> in_flight (function Ev_join (q, _) -> Addr.equal_proc p q | _ -> false)
      | Ev_gb (u, _) ->
        (* Re-routed copies of an undelivered GBCAST collapse onto the
           queued original. *)
        in_flight (function Ev_gb (u2, _) -> u2 = u | _ -> false)
    in
    if dup then st else { st with queue = st.queue @ [ ev ] }

(* Put an unprocessed [batch] back at the head of the queue, ahead of
   the events queued since it was taken.  Those go back through
   [enqueue], so a re-routed copy of a batch entry collapses onto it.
   The running change is cleared first: its batch is the one being
   requeued. *)
let requeue st batch = List.fold_left enqueue { st with change = None; queue = batch } st.queue

let not_suspicion_of site = function Ev_fail (p, false) -> p.Addr.site <> site | _ -> true

(* --- the coordinator: starting a change --- *)

let enter_minority st ~survivors ~certain =
  let attempt = st.last_attempt + 1 in
  let st =
    { st with last_attempt = attempt; change = None;
              minority = Some { m_attempt = attempt; m_rounds = 0 } }
  in
  let base =
    List.filter (fun m -> not (List.exists (Addr.equal_proc m) certain)) st.view.View.members
  in
  let needed = (List.length base / 2) + 1 in
  (* Wedge every reachable component site (self included) so that
     origination blocks component-wide, not just here. *)
  ( st,
    (Note (Minority_entered { survivors = List.length survivors; needed })
     :: send_wedges st ~attempt (component_sites st))
    @ [ Arm (500_000, Probe attempt) ] )

(* [alive]: the local processes queued as suspected that live. *)
let start_with st ~alive =
  (* A suspicion of a member hosted HERE that is demonstrably alive is
     stale (a heal delivered someone's partition-era report after the
     fact): processing it would evict a live local member — or make this
     coordinator count itself dead and wedge a healthy component. *)
  let batch =
    List.filter
      (function
        | Ev_fail (p, false) when p.Addr.site = st.me -> not (List.exists (Addr.equal_proc p) alive)
        | _ -> true)
      st.queue
  in
  (* Primary-partition rule: the component this coordinator can still
     reach may run the change only if it retains a quorum of the current
     view.  Deaths witnessed directly ([certain]) and voluntary leaves
     shrink the quorum base; suspicions do not — they are exactly what a
     partition forges on both sides at once. *)
  let certain =
    List.filter_map (function Ev_fail (p, true) | Ev_leave p -> Some p | _ -> None) batch
  in
  let gone = List.filter_map (function Ev_fail (p, _) | Ev_leave p -> Some p | _ -> None) batch in
  (* The survivors exclude every member whose site we suspect: when
     eviction reports drip in one at a time, an isolated site could
     otherwise evict the far side one member per flush, each step
     retaining a "majority" of the shrunk view — split brain by
     induction. *)
  let survivors =
    List.filter
      (fun (m : Addr.proc) ->
        (not (List.exists (Addr.equal_proc m) gone))
        && (m.Addr.site = st.me || not (Int_set.mem m.Addr.site st.suspects)))
      st.view.View.members
  in
  if not (View.quorum_met ~prev:st.view ~survivors ~certain) then
    enter_minority (requeue { st with queue = [] } batch) ~survivors ~certain
  else begin
    let attempt = st.last_attempt + 1 in
    let sites = component_sites st in
    let c = { c_attempt = attempt; c_batch = batch; c_sites = sites; c_phase = Collecting [] } in
    ( { st with queue = []; last_attempt = attempt; change = Some c },
      (Note (Flush_started attempt) :: send_wedges st ~attempt sites)
      @ [ Arm (1_000_000, Wedge_retry attempt) ] )
  end

(* Whether a local process lives is the runtime's to say: ask when the
   queue suspects one. *)
let start_change st =
  let local = function Ev_fail (p, false) when p.Addr.site = st.me -> Some p | _ -> None in
  match List.filter_map local st.queue with
  | [] -> start_with st ~alive:[]
  | procs -> (st, [ Check_alive { procs; rest = [] } ])

let maybe_start st =
  match st.change, st.minority, st.queue with
  | None, None, _ :: _ when i_am_coord st -> start_change st
  | _ -> none st

let asks effects = match List.rev effects with Check_alive _ :: _ -> true | _ -> false

(* --- routing events to the acting coordinator --- *)

let rec route st ev =
  match st.minority, ev with
  | Some _, Ev_join (p, _) ->
    (* A minority component must not grow itself back over quorum with
       newcomers: refuse, so the joiner retries against the primary. *)
    (st, [ Refuse_join (p, "partitioned: minority component") ])
  | _ -> (
    match acting_coord st with
    | Some c when c = st.me -> maybe_start (enqueue st ev)
    | Some c ->
      let group = gid st in
      let frame =
        match ev with
        | Ev_join (p, cred) -> Proto.Join_req { group; joiner = p; credentials = cred }
        | Ev_leave p -> Proto.Leave_req { group; who = p }
        | Ev_fail (p, certain) -> Proto.Proc_failed { group; who = p; certain }
        | Ev_gb (uid, body) -> Proto.Gb_req { group; view_id = view_id st; uid; body }
      in
      (st, [ Send (c, frame) ])
    | None ->
      (* Every member site is suspected: park the event and re-route it
         later — a suspicion clears, or the copy is torn down. *)
      (enqueue st ev, [ Note No_coordinator; Arm (500_000, Reroute) ]))

(* Route [evs] in order.  A route that starts a change may first ask
   which local processes live; the events after it travel with the
   question and route once the change has started, as they would with
   the answer at hand. *)
and route_all st = function
  | [] -> none st
  | ev :: rest -> (
    match route st ev with
    | st, [ Check_alive c ] -> (st, [ Check_alive { c with rest } ])
    | routed -> routed >>= fun st -> route_all st rest)

(* Hand every queued event to whoever coordinates now. *)
and reroute_pending st = match st.queue with [] -> none st | q -> route_all { st with queue = [] } q

(* A failure interrupted the flush: requeue the unprocessed batch and
   run again with fresh suspicions folded in. *)
let restart_change st =
  maybe_start
    (match st.change with
    | Some c when not (committed c) -> requeue st c.c_batch
    | Some _ | None -> { st with change = None })

(* [site] answered at our view: clear its suspicion and its members'
   suspicion records, and rerun the change — if quorum now holds, the
   ordinary flush commits (unwedging the whole component, even with an
   empty batch); otherwise the minority is re-entered.  Clearing the
   suspicion may hand coordinatorship back to [site]: then the parked
   events go there. *)
let minority_recover st site =
  let st =
    { st with suspects = Int_set.remove site st.suspects;
              queue = List.filter (not_suspicion_of site) st.queue; minority = None }
  in
  (st, [ Note Minority_left ]) >>= fun st ->
  if i_am_coord st then start_change st else reroute_pending st

(* This copy is dead: the primary partition installed [new_view_id]
   without us (or probing ran dry, [-1]).  A minority coordinator tells
   its fellow component sites the verdict — a view id beyond theirs —
   so they discard their copies too instead of wedging forever. *)
let teardown st ~new_view_id =
  let notify =
    match st.minority with
    | Some _ ->
      List.filter (fun s -> s <> st.me && not (Int_set.mem s st.suspects)) (View.sites st.view)
    | None -> []
  in
  let verdict = if new_view_id >= 0 then new_view_id else view_id st + 1 in
  ({ st with minority = None }, [ Teardown { new_view_id; verdict; notify } ])

(* --- the coordinator: acks, fetch plan, commit --- *)

(* The complete ack set in the order the coordinator's by-site table
   iterated it, which reaches the wire: it picks which already-applied
   commit is re-broadcast and orders the ABCAST reports. *)
let table_order acks =
  let h = Hashtbl.create (List.length acks) in
  List.iter (fun (s, a) -> Hashtbl.replace h s a) acks;
  List.rev (Hashtbl.fold (fun s a acc -> (s, a) :: acc) h [])

let resolve acks =
  let acks = table_order acks in
  let lacks u f = List.exists (fun (_, a) -> not (Uid_set.mem u (f a))) acks in
  let union =
    List.fold_left (fun acc (_, a) -> Uid_set.union acc a.a_cb_known) Uid_set.empty acks
  in
  (* Each reported ABCAST with every report of it, by construction. *)
  let add acc (r : Proto.ab_report) =
    Uid_map.update r.Proto.ab_uid (fun cur -> Some (r :: Option.value ~default:[] cur)) acc
  in
  let reports =
    List.fold_left (fun acc (_, a) -> List.fold_left add acc a.a_ab_report) Uid_map.empty acks
  in
  let next_final = ref (List.fold_left (fun acc (_, a) -> max acc a.a_ab_counter) 0 acks) in
  let fins, drops =
    Uid_map.fold
      (fun u rs (fins, drops) ->
        match List.find_opt (fun r -> r.Proto.ab_committed) rs with
        | Some r -> ((u, r.Proto.ab_prio) :: fins, drops)
        | None when List.mem_assoc u.usite acks ->
          (* Originator is live: finalize above every site's counter. *)
          incr next_final;
          ((u, (!next_final, u.usite)) :: fins, drops)
        | None -> (fins, u :: drops))
      reports ([], [])
  in
  let fins = List.rev fins in
  { r_missing_cb =
      Uid_set.elements (Uid_set.filter (fun u -> lacks u (fun a -> a.a_cb_known)) union);
    r_ab_finalize = fins; r_ab_drop = List.rev drops;
    r_ab_missing = List.filter (fun (u, _) -> lacks u (fun a -> a.a_ab_uids)) fins }

let with_phase st c phase = { st with change = Some { c with c_phase = phase } }

(* A suspicion of a member whose site ACKED this very flush is stale by
   contradiction: the site is answering us right now.  If the reporter
   still cannot reach it, it re-reports and a later flush evicts. *)
let live_batch c =
  List.filter
    (function Ev_fail (p, false) -> not (List.mem p.Addr.site c.c_sites) | _ -> true)
    c.c_batch

let build_commit st c res fetched ~refused =
  let batch = live_batch c in
  let is_member = View.is_member st.view in
  (* Members this commit removes, over the whole batch up front. *)
  let removed =
    List.filter_map
      (function (Ev_leave p | Ev_fail (p, _)) when is_member p -> Some p | _ -> None)
      batch
  in
  (* A GBCAST whose originating site hosts no surviving member must not
     ride this flush: it would reach the group from a sender AFTER the
     view change that evicted it.  (A uid names only a site; with one
     member per site, as the simulator drives it, this is exact.) *)
  let origin_survives (uid : uid) =
    List.exists
      (fun (m : Addr.proc) ->
        m.Addr.site = uid.usite && not (List.exists (Addr.equal_proc m) removed))
      st.view.View.members
  in
  let events, gb_bodies, refs =
    List.fold_left
      (fun (evs, gbs, refs) ev ->
        match ev with
        | Ev_join (p, _) when is_member p -> (evs, gbs, refs)
        | Ev_join (p, _) when List.exists (Addr.equal_proc p) refused -> (evs, gbs, refs @ [ p ])
        | Ev_join (p, _) -> (evs @ [ View.Member_joined p ], gbs, refs)
        | Ev_leave p when is_member p -> (evs @ [ View.Member_left p ], gbs, refs)
        | Ev_fail (p, _) when is_member p -> (evs @ [ View.Member_failed p ], gbs, refs)
        | Ev_gb (uid, body) when origin_survives uid -> (evs, gbs @ [ (uid, body) ], refs)
        | Ev_leave _ | Ev_fail _ | Ev_gb _ -> (evs, gbs, refs))
      ([], [], []) batch
  in
  let group = gid st in
  let refusals =
    List.map
      (fun (p : Addr.proc) ->
        let reason = "join refused by validator" in
        Send (p.Addr.site, Proto.Join_refused { group; joiner = p; reason }))
      refs
  in
  (* Pair the stabilization decisions with the fetched bodies, the Sab
     priorities fixed to the final values.  A body nobody returned is
     reported and left out. *)
  let missing = ref [] in
  let lookup u =
    match List.find_opt (fun s -> uid_equal (Proto.stored_uid s) u) fetched with
    | Some s -> Some s
    | None -> missing := Note (Body_missing u) :: !missing; None
  in
  let stab_cb = List.filter_map lookup res.r_missing_cb in
  let stab_ab =
    List.filter_map
      (fun (u, prio) ->
        match lookup u with
        | Some (Proto.Sab s) -> Some (Proto.Sab { s with prio })
        | Some (Proto.Scb _) | None -> None)
      res.r_ab_missing
  in
  (* The successor id derives from the committing attempt: the familiar
     [view_id + 1] when changes are uncontested, and under contention an
     id the takeover's successor never reuses, so a stale coordinator
     that still commits behind a partition leaves detectably old state
     instead of colliding with the primary's. *)
  let new_view = View.apply ~id:(c.c_attempt + 1) st.view events in
  let commit =
    Proto.Commit
      { group; view_id = view_id st; attempt = c.c_attempt; coord_site = st.me;
        coord_epoch = st.epoch; stabilize = stab_cb @ stab_ab; ab_finalize = res.r_ab_finalize;
        ab_drop = res.r_ab_drop; events; new_view; gname = st.gname; gb_bodies }
  in
  let joined =
    List.filter_map (function View.Member_joined (p : Addr.proc) -> Some p.Addr.site | _ -> None)
      events
  in
  let dests = List.sort_uniq compare (c.c_sites @ joined) in
  (with_phase st c Committed, refusals @ List.rev !missing @ [ Commit (dests, commit) ])

(* The joins the validator must see first, in batch order. *)
let finish st c res fetched =
  match
    List.filter_map
      (function Ev_join (p, cred) when not (View.is_member st.view p) -> Some (p, cred) | _ -> None)
      (live_batch c)
  with
  | [] -> build_commit st c res fetched ~refused:[]
  | joins -> (with_phase st c (Validating { res; fetched }), [ Validate joins ])

let holds a u = Uid_set.mem u a.a_cb_known || Uid_set.mem u a.a_ab_uids

let proceed st c acks =
  match List.find_map (fun (_, a) -> a.a_already) (table_order acks) with
  | Some commit ->
    (* Someone already applied a commit from a dead coordinator for this
       view: re-broadcast it verbatim, requeue our batch, and let the
       commit drive everyone forward. *)
    (requeue st c.c_batch, List.map (fun dst -> Send (dst, commit)) c.c_sites)
  | None ->
    let res = resolve acks in
    (* Who holds each needed body?  Prefer ourselves, then the lowest
       site. *)
    let by_site = List.sort (fun (s, _) (s', _) -> compare s s') acks in
    let holder_of u =
      if List.exists (fun (s, a) -> s = st.me && holds a u) acks then st.me
      else
        match List.find_opt (fun (_, a) -> holds a u) by_site with Some (s, _) -> s | None -> st.me
    in
    let by_holder = Hashtbl.create 4 in
    List.iter
      (fun u ->
        let h = holder_of u in
        Hashtbl.replace by_holder h (u :: Option.value ~default:[] (Hashtbl.find_opt by_holder h)))
      (res.r_missing_cb @ List.map fst res.r_ab_missing);
    let local = Hashtbl.find_opt by_holder st.me in
    Hashtbl.remove by_holder st.me;
    let remote = Hashtbl.fold (fun s uids acc -> (s, uids) :: acc) by_holder [] in
    let attempt = c.c_attempt in
    let fetch (s, uids) =
      Send (s, Proto.Fetch { group = gid st; view_id = view_id st; attempt; uids })
    in
    match local with
    | None when remote = [] -> finish st c res []
    | None ->
      ( with_phase st c (Fetching { res; wait = List.map fst remote; fetched = [] }),
        List.map fetch remote )
    | Some uids ->
      ( with_phase st c (Fetching { res; wait = st.me :: List.map fst remote; fetched = [] }),
        Fetch_local { attempt; uids } :: List.map fetch remote )

let on_wedge_ack st ~from_site ~attempt ack =
  match st.change with
  | Some ({ c_phase = Collecting acks; _ } as c)
    when c.c_attempt = attempt && List.mem from_site c.c_sites
         && not (List.mem_assoc from_site acks) ->
    (* The [c_sites] guard matters: a site excluded from the flush as
       suspected can recover in mid-change and ack the wedge anyway;
       counting it would let the flush proceed while a participant is
       still missing.  The recovered site is evicted and rejoins. *)
    let acks = acks @ [ (from_site, ack) ] in
    if List.compare_lengths acks c.c_sites = 0 then proceed st c acks
    else none (with_phase st c (Collecting acks))
  | Some _ | None -> none st

let on_fetch_reply st ~from_site ~attempt bodies =
  match st.change with
  | Some ({ c_phase = Fetching f; _ } as c)
    when c.c_attempt = attempt && List.mem from_site f.wait ->
    let wait = List.filter (fun s -> s <> from_site) f.wait and fetched = f.fetched @ bodies in
    if wait = [] then finish st c f.res fetched
    else none (with_phase st c (Fetching { f with wait; fetched }))
  | Some _ | None -> none st

(* A site still catching up on an OLDER view ignores a Wedge for a view
   ahead of its own, then adopts that view via a rebroadcast commit — at
   which point it would ack, but the Wedge is long gone.  Re-send it to
   the sites whose acks are missing until the attempt completes or is
   superseded; re-wedging a wedged site is idempotent. *)
let wedge_retry st attempt =
  match st.change with
  | Some { c_attempt; c_sites; c_phase = Collecting acks; _ } when c_attempt = attempt -> (
    match List.filter (fun s -> s <> st.me && not (List.mem_assoc s acks)) c_sites with
    | [] -> none st
    | missing -> (st, send_wedges st ~attempt missing @ [ Arm (1_000_000, Wedge_retry attempt) ]))
  | Some _ | None -> none st

(* --- the member: wedge and commit --- *)

let on_wedge st ~src ~view_id:vid ~attempt ~coord_site ~coord_epoch =
  if vid < view_id st then
    (* We already committed past this view.  If our commit retired that
       very view (a prior coordinator died after partially fanning it
       out), hand it to the new coordinator to re-broadcast.  Otherwise
       the lineages diverged (a stale minority coordinator revived), and
       an empty ack would let it count us towards ITS quorum and commit a
       rival view: refuse with a probe reply, which makes the stale copy
       tear itself down and rejoin fresh. *)
    match st.last_commit with
    | Some (Proto.Commit c as frame) when c.view_id = vid ->
      ( st,
        [ Send
            ( src,
              Proto.Wedge_ack
                { group = gid st; view_id = vid; attempt; from_site = st.me; cb_known = [];
                  ab_report = []; ab_counter = 0; already_committed = Some frame } ) ] )
    | Some _ | None -> (st, [ current_view st src ])
  else if vid > view_id st then
    (* The sender installed views we never saw: we are on the dead side
       of a partition, and our own probe/commit path handles it. *)
    none st
  else
    match st.wedge with
    | Some w
      when not (attempt > w.w_attempt || (attempt = w.w_attempt && coord_site <= w.w_coord)) ->
      (* A competing wedge that loses to the one we hold.  Silence would
         starve its coordinator (waiting for our ack while the winner
         proceeds, and forever if the winner then dies): echo the winner
         so the loser adopts it and abandons its change. *)
      if src = st.me then none st
      else
        ( st,
          [ Send
              ( src,
                Proto.Wedge
                  { group = gid st; view_id = vid; attempt = w.w_attempt; coord_site = w.w_coord;
                    coord_epoch = w.w_epoch } ) ] )
    | Some _ | None ->
      let st =
        { st with wedge = Some { w_attempt = attempt; w_coord = coord_site; w_epoch = coord_epoch };
                  last_attempt = max st.last_attempt attempt }
      in
      (* A lower-precedence change we coordinate is abandoned: its batch
         goes back in the queue, and a delayed re-propose covers a winning
         wedge that never turns into a commit (a minority's, whose owner
         recovered instead). *)
      let st, abandon =
        match st.change with
        | Some c when coord_site <> st.me ->
          ( (if committed c then { st with change = None } else requeue st c.c_batch),
            [ Arm (500_000, Repropose) ] )
        | Some _ | None -> (st, [])
      in
      (st, (Note Wedged :: abandon) @ [ Ack_wedge { dst = src; attempt } ])

(* Fence the commit against the wedge in force here: a coordinator the
   flush has moved past must not finalize, or the view history forks.
   Acceptable: the exact coordinator we are wedged under (same attempt,
   site and endpoint epoch — a restarted coordinator's ghost commit is
   rejected); the wedge-holder site rebroadcasting a dead predecessor's
   commit; or an attempt that dominates our wedge outright. *)
let accepts st ~src ~attempt ~coord_site ~coord_epoch =
  match st.wedge with
  | None -> true
  | Some w ->
    if attempt = w.w_attempt && coord_site = w.w_coord then coord_epoch = w.w_epoch
    else
      src = w.w_coord || attempt > w.w_attempt
      || (attempt = w.w_attempt && coord_site < w.w_coord)

(* Adopt the commit's view.  Our own change record is resolved: the one
   just committed is consumed, a superseded one's batch goes back for
   another round.  GBCASTs the commit delivers are done wherever they
   still wait. *)
let install st ~retiring frame =
  match frame with
  | Proto.Commit { gb_bodies; new_view; _ } ->
    let st = match st.change with Some c when not (committed c) -> requeue st c.c_batch | _ -> st in
    let delivered u = List.exists (fun (u', _) -> u' = u) gb_bodies in
    ( { st with change = None; view = new_view; wedge = None; minority = None;
                last_commit = Some frame; leaving = List.filter (View.is_member new_view) st.leaving;
                suspects = Int_set.filter (View.hosts new_view) st.suspects;
                outstanding = List.filter (fun (u, _) -> not (delivered u)) st.outstanding;
                queue =
                  List.filter (function Ev_gb (u, _) -> not (delivered u) | _ -> true) st.queue },
      [ Install { retiring; commit = frame } ] )
  | _ -> none st

let adopt ~me ~epoch frame =
  match frame with
  | Proto.Commit { new_view; gname; _ } when View.hosts new_view me ->
    Some (install (create ~me ~epoch ~gname new_view) ~retiring:None frame)
  | _ -> None

(* After the install mechanics ran.  A suspicion that survived the
   change means its eviction report went missing (routed to a
   coordinator a partition swallowed): re-propose it, so reports
   converge to an eviction however many are lost.  Likewise re-issue
   our undelivered GBCASTs until some commit carries them, and the
   leaves of our processes the new view still lists: the coordinator
   we asked may have left or died first.  Duplicates collapse in the
   coordinator's queue. *)
let installed st (new_view : View.t) =
  let suspected =
    List.filter_map
      (fun (m : Addr.proc) ->
        if m.Addr.site = st.me || not (Int_set.mem m.Addr.site st.suspects) then None
        else Some (Ev_fail (m, false)))
      new_view.View.members
  in
  let gbs = List.rev_map (fun (u, b) -> Ev_gb (u, b)) st.outstanding in
  let leaves = List.rev_map (fun p -> Ev_leave p) st.leaving in
  let routed = route_all st (suspected @ gbs @ leaves) in
  if asks (snd routed) then routed (* the change starts with the answer *)
  else
    (* Leadership may have moved with the new view: hand queued events
       to the coordinator that can run them. *)
    routed >>= fun st -> if i_am_coord st then maybe_start st else reroute_pending st

(* --- failure detection --- *)

(* A certain death (incarnation change) is re-reported even for a site
   already suspected: the suspicion's report may have been lost, and
   certainty shrinks the quorum base. *)
let site_down st ~site ~certain =
  let sites = View.sites st.view in
  if List.mem site sites && (certain || not (Int_set.mem site st.suspects)) then begin
    let st = { st with suspects = Int_set.add site st.suspects } in
    let victims = List.map (fun v -> Ev_fail (v, certain)) (View.members_at_site st.view site) in
    if i_am_coord st then
      let st = List.fold_left enqueue st victims in
      (* A change in flight that involved the dead site must restart. *)
      match st.change with
      | Some c when List.mem site c.c_sites -> restart_change st
      | Some _ -> none st
      | None -> maybe_start st
    else route_all st victims
  end
  else none st

(* The ping detector heard back from a site it had declared down: the
   suspicion was about reachability, not death.  Retract it wherever it
   has not yet been acted on, or the install-time re-propose keeps the
   group churning empty view changes forever after the network heals. *)
let site_recovered st site =
  if List.mem site (View.sites st.view) && Int_set.mem site st.suspects then
    match st.minority with
    | Some _ -> minority_recover st site
    | None ->
      let st =
        { st with suspects = Int_set.remove site st.suspects;
                  queue = List.filter (not_suspicion_of site) st.queue }
      in
      if i_am_coord st then none st else reroute_pending st
  else none st

let probe st attempt =
  match st.minority with
  | Some m when m.m_attempt = attempt ->
    let m_rounds = m.m_rounds + 1 in
    let st = { st with minority = Some { m with m_rounds } } in
    (* After ~20 s of unanswered probes the rest of the group is gone (or
       we are cut off for good): the copy dissolves. *)
    if m_rounds > 40 then teardown st ~new_view_id:(-1)
    else
      (* Probe the suspects AND the sites a queued suspicion would evict:
         a stale suspicion can queue a member whose site is not in
         [suspects], and probing nobody would run dry against a healthy
         peer. *)
      let add acc = function
        | Ev_fail (p, false) when p.Addr.site <> st.me -> Int_set.add p.Addr.site acc
        | _ -> acc
      in
      let targets = Int_set.elements (List.fold_left add st.suspects st.queue) in
      (st, [ Probe_sites targets; Arm (500_000, Probe attempt) ])
  | Some _ | None -> none st

(* --- frames --- *)

let on_frame st ~src frame =
  (* Membership requests count only from sites inside the current view:
     a site a partition evicted keeps reporting stale suspicions, and a
     request it queued before its eviction must not reach the group
     after it.  Anyone else is told which view is current.  CERTAIN
     failure reports (the victim's own site saw the death) are welcome
     from anyone. *)
  let from_member k =
    if List.mem src (View.sites st.view) then k () else (st, [ current_view st src ])
  in
  match frame with
  | Proto.Join_req { joiner; credentials; _ } -> route st (Ev_join (joiner, credentials))
  | Proto.Leave_req { who; _ } -> from_member (fun () -> route st (Ev_leave who))
  | Proto.Proc_failed { who; certain = true; _ } -> route st (Ev_fail (who, true))
  | Proto.Proc_failed { who; _ } -> from_member (fun () -> route st (Ev_fail (who, false)))
  | Proto.Gb_req { view_id = vid; uid; body; _ } ->
    (* A request routed in an older view is dropped, as data frames are:
       an install in between may have delivered it, and if not, its
       origin re-routes it. *)
    from_member (fun () -> if vid >= view_id st then route st (Ev_gb (uid, body)) else none st)
  | Proto.Wedge { view_id; attempt; coord_site; coord_epoch; _ } ->
    on_wedge st ~src ~view_id ~attempt ~coord_site ~coord_epoch
  | Proto.Wedge_ack { attempt; from_site; cb_known; ab_report; ab_counter; already_committed; _ } ->
    let ab_uids = List.map (fun (r : Proto.ab_report) -> r.Proto.ab_uid) ab_report in
    on_wedge_ack st ~from_site ~attempt
      { a_cb_known = Uid_set.of_list cb_known; a_ab_uids = Uid_set.of_list ab_uids;
        a_ab_report = ab_report; a_ab_counter = ab_counter; a_already = already_committed }
  | Proto.Fetch_reply { attempt; from_site; bodies; _ } ->
    on_fetch_reply st ~from_site ~attempt bodies
  | Proto.Commit { view_id = vid; attempt; coord_site; coord_epoch; _ } ->
    if vid <> view_id st then none st (* stale or repeated commit *)
    else if accepts st ~src ~attempt ~coord_site ~coord_epoch then (st, [ Retire frame ])
    else (st, [ Note (Fenced { view_id = vid; attempt; src }) ])
  | Proto.View_probe_reply { view_id = vid; _ } ->
    if vid > view_id st then teardown st ~new_view_id:vid
    else if st.minority <> None && vid = view_id st then minority_recover st src
    else none st
  | _ -> none st

let step st = function
  | Event (Ev_leave p as ev) when p.Addr.site = st.me -> route { st with leaving = p :: st.leaving } ev
  | Event ev -> route st ev
  | Gbcast (uid, body) ->
    route { st with outstanding = (uid, body) :: st.outstanding } (Ev_gb (uid, body))
  | Frame (src, frame) -> on_frame st ~src frame
  | Retired (Proto.Commit { view_id = vid; _ } as frame) when vid = view_id st ->
    install st ~retiring:(Some st.view) frame
  | Retired _ -> none st
  | Installed new_view -> installed st new_view
  | Site_down { site; certain } -> site_down st ~site ~certain
  | Site_recovered site -> site_recovered st site
  | Timer (Wedge_retry attempt) -> wedge_retry st attempt
  | Timer Reroute -> reroute_pending st
  | Timer Repropose -> maybe_start st
  | Timer (Probe attempt) -> probe st attempt
  | Alive_here { alive; rest } -> start_with st ~alive >>= fun st -> route_all st rest
  | Refused refused -> (
    match st.change with
    | Some ({ c_phase = Validating { res; fetched }; _ } as c) ->
      build_commit st c res fetched ~refused
    | Some _ | None -> none st)
