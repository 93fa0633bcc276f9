(* Group membership: routing membership events and GBCASTs to the
   acting coordinator, the view-change flush (wedge, acks, fetch,
   commit, install), failure handling on site up/down, and the dispatch
   of every frame addressed to a group.  The minority side of a
   partition lives in [Partition]. *)

open Types
open State
open Sessions
open Delivery
open Origination
open Partition

(* --- wedge-ack reconciliation ---

   What the flush coordinator decides from a complete set of wedge
   acknowledgements.  Shared by [proceed_with_acks] (which fetches the
   missing bodies) and [build_commit] (which re-derives the decisions
   when assembling the commit): membership tests run against the
   [Uid_set]s carried in [ack_info], where this logic historically did
   [List.mem] over per-site uid lists — O(sites · uids²) on a large
   flush. *)

type ack_resolution = {
  r_missing_cb : uid list; (* CBCASTs some wedged site has not received *)
  r_ab_finalize : (uid * prio) list; (* final priorities, sorted by uid *)
  r_ab_drop : uid list; (* uncommitted ABCASTs from dead originators *)
  r_ab_missing : (uid * prio) list; (* the finalized ABCASTs some site lacks *)
}

let resolve_acks ~gid ~view_id (c : change_state) =
  (* Every lookup here trusts the invariant that acks arrived from
     exactly [c_sites]; when that breaks (a protocol bug), fail with the
     flush's full coordinates rather than a bare [Not_found]. *)
  let info_of s =
    match Hashtbl.find_opt c.c_acks s with
    | Some a -> a
    | None ->
      invalid_arg
        (Printf.sprintf
           "Runtime.resolve_acks: no wedge ack from site %d (group g%d view %d attempt %d; \
            acks from [%s])"
           s gid view_id c.c_attempt
           (String.concat " "
              (Hashtbl.fold (fun s _ acc -> string_of_int s :: acc) c.c_acks [])))
  in
  let union =
    Hashtbl.fold (fun _ a acc -> Uid_set.union acc a.a_cb_known) c.c_acks Uid_set.empty
  in
  let missing_cb =
    Uid_set.filter
      (fun u -> List.exists (fun s -> not (Uid_set.mem u (info_of s).a_cb_known)) c.c_sites)
      union
  in
  let ab_all : (uid, Proto.ab_report list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ a ->
      List.iter
        (fun (r : Proto.ab_report) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt ab_all r.Proto.ab_uid) in
          Hashtbl.replace ab_all r.Proto.ab_uid (r :: cur))
        a.a_ab_report)
    c.c_acks;
  let floor = Hashtbl.fold (fun _ a acc -> max acc a.a_ab_counter) c.c_acks 0 in
  let ab_uids = Hashtbl.fold (fun u _ acc -> u :: acc) ab_all [] |> List.sort uid_compare in
  let site_set = Int_set.of_list c.c_sites in
  let next_final = ref floor in
  let ab_finalize, ab_drop =
    List.fold_left
      (fun (fins, drops) u ->
        let reports =
          match Hashtbl.find_opt ab_all u with
          | Some rs -> rs
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Runtime.resolve_acks: no ab report for uid %d.%d (group g%d view %d attempt \
                  %d)"
                 u.usite u.useq gid view_id c.c_attempt)
        in
        match List.find_opt (fun r -> r.Proto.ab_committed) reports with
        | Some r -> ((u, r.Proto.ab_prio) :: fins, drops)
        | None ->
          if Int_set.mem u.usite site_set then begin
            (* Originator is live: finalize above every site's counter. *)
            incr next_final;
            ((u, (!next_final, u.usite)) :: fins, drops)
          end
          else (fins, u :: drops))
      ([], []) ab_uids
  in
  let ab_finalize = List.rev ab_finalize and ab_drop = List.rev ab_drop in
  let ab_missing =
    List.filter
      (fun (u, _) ->
        List.exists (fun s -> not (Uid_set.mem u (info_of s).a_ab_uids)) c.c_sites)
      ab_finalize
  in
  {
    r_missing_cb = Uid_set.elements missing_cb;
    r_ab_finalize = ab_finalize;
    r_ab_drop = ab_drop;
    r_ab_missing = ab_missing;
  }

(* --- routing membership events --- *)

(* The only way into [g.pending_events]: an event already queued or in
   the running change's batch is dropped, so no batch carries one event
   twice. *)
let enqueue_event g ev =
  let in_flight pred =
    List.exists pred g.pending_events
    || match g.change with Some c -> List.exists pred c.c_batch | None -> false
  in
  let suspicion_of p = function Ev_fail (q, false) -> Addr.equal_proc p q | _ -> false in
  match ev with
  | Ev_fail (p, true) when List.exists (suspicion_of p) g.pending_events ->
    (* A certain death upgrades a queued suspicion of the same process
       in place: certainty matters to the quorum rule. *)
    g.pending_events <- List.map (fun e -> if suspicion_of p e then ev else e) g.pending_events
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
      | Ev_join (p, _) ->
        in_flight (function Ev_join (q, _) -> Addr.equal_proc p q | _ -> false)
      | Ev_gb (u, _) ->
        (* Re-routed copies of an undelivered GBCAST (see
           [gb_outstanding]) collapse onto the queued original. *)
        in_flight (function Ev_gb (u2, _) -> u2 = u | _ -> false)
    in
    if not dup then g.pending_events <- g.pending_events @ [ ev ]

(* Put an unprocessed [batch] back at the head of the queue, ahead of
   the events queued since it was taken.  Those go back through
   [enqueue_event], so a re-routed copy of a batch entry collapses onto
   it.  The running change is cleared first: its batch is the one being
   requeued. *)
let requeue g batch =
  g.change <- None;
  let queued = g.pending_events in
  g.pending_events <- batch;
  List.iter (enqueue_event g) queued

(* A flush can starve on participants that could not ack the original
   Wedge: a site still catching up on an OLDER view (it held a
   higher-precedence wedge there and fenced our commit predecessor)
   ignores a Wedge for a view ahead of its own, then adopts that view
   via a rebroadcast commit — at which point it would happily ack, but
   the Wedge is long gone.  Re-send the Wedge to the participants whose
   acks are still missing, until the change completes, aborts, or moves
   to a new attempt.  Re-wedging an already-wedged site is idempotent
   (same attempt/coordinator falls through to a duplicate ack, which
   [on_wedge_ack] drops). *)
let rec wedge_retry t g ~attempt =
  after t g ~delay:1_000_000 (fun () ->
      match g.change with
      | Some c when c.c_attempt = attempt && not c.c_committed ->
        let missing =
          List.filter (fun s -> s <> t.my_site && not (Hashtbl.mem c.c_acks s)) c.c_sites
        in
        if missing <> [] then begin
          send_wedge t g ~attempt missing;
          wedge_retry t g ~attempt
        end
      | Some _ | None -> ())

(* --- the view-change / GBCAST flush --- *)

let start_change t g =
  let batch = g.pending_events in
  g.pending_events <- [];
  (* A suspicion of a member hosted HERE that is demonstrably alive is
     stale by construction (a heal delivered someone's partition-era
     report after the fact): processing it would evict a live local
     member — or, worse, make this coordinator count itself dead and
     wedge a healthy component.  Certain reports are never dropped. *)
  let batch =
    List.filter
      (function
        | Ev_fail (p, false) when p.Addr.site = t.my_site -> find_proc t p = None
        | _ -> true)
      batch
  in
  (* Primary-partition rule: the component this coordinator can still
     reach may run the change (and keep delivering in the new view) only
     if it retains a quorum of the current view.  Deaths witnessed
     directly ([certain]) and voluntary leaves shrink the quorum base;
     mere suspicions do not — suspicions are exactly what a partition
     forges on both sides at once. *)
  let certain =
    List.filter_map
      (function Ev_fail (p, true) | Ev_leave p -> Some p | _ -> None)
      batch
  in
  let gone =
    List.filter_map (function Ev_fail (p, _) | Ev_leave p -> Some p | _ -> None) batch
  in
  (* The surviving component is the members this batch keeps MINUS any
     member whose site we currently suspect.  The second clause matters
     when eviction reports drip in one at a time (a report routed to an
     unreachable coordinator is lost): without it an isolated site could
     evict the far side one member per flush, each step retaining a
     "majority" of the freshly shrunk view, and walk itself into a
     unilateral view — split-brain by induction. *)
  let survivors =
    List.filter
      (fun (m : Addr.proc) ->
        (not (List.exists (Addr.equal_proc m) gone))
        && (m.Addr.site = t.my_site || not (Int_set.mem m.Addr.site g.suspects)))
      g.view.View.members
  in
  if not (View.quorum_met ~prev:g.view ~survivors ~certain) then begin
    requeue g batch;
    enter_minority t g ~survivors ~certain
  end
  else begin
    let attempt = g.last_attempt + 1 in
    g.last_attempt <- attempt;
    let sites = component_sites t g in
    g.change <-
      Some
        { c_attempt = attempt; c_batch = batch; c_sites = sites;
          c_acks = Hashtbl.create (List.length sites); c_fetch_wait = [];
          c_fetched = []; c_committed = false };
    trace_event t Obs_event.Proto (fun () ->
        Obs_event.Flush
          { site = t.my_site; group = gi g.gid; view_id = g.view.View.view_id; attempt });
    send_wedge t g ~attempt sites;
    wedge_retry t g ~attempt
  end

let maybe_start_change t g =
  if
    g.change = None
    && g.minority = None
    && g.pending_events <> []
    && i_am_coord t g
  then start_change t g

(* Route a membership/GBCAST event to the acting coordinator. *)
let rec route_event t g ev =
  match g.minority, ev with
  | Some _, Ev_join (p, _) ->
    (* A minority component must not grow itself back over quorum with
       newcomers: refuse immediately so the joiner retries against the
       primary partition once the split heals. *)
    let reason = "partitioned: minority component" in
    if p.Addr.site = t.my_site then (
      match jw_take t ~gid_int:(gi g.gid) ~idx:p.Addr.idx with
      | Some iv -> Ivar.fill iv (Error reason)
      | None -> ())
    else send_frame t ~dst:p.Addr.site (Proto.Join_refused { group = g.gid; joiner = p; reason })
  | _ -> (
    match acting_coord_site g with
    | Some c when c = t.my_site ->
      enqueue_event g ev;
      maybe_start_change t g
    | Some c ->
      let frame =
        match ev with
        | Ev_join (p, cred) -> Proto.Join_req { group = g.gid; joiner = p; credentials = cred }
        | Ev_leave p -> Proto.Leave_req { group = g.gid; who = p }
        | Ev_fail (p, certain) -> Proto.Proc_failed { group = g.gid; who = p; certain }
        | Ev_gb (uid, body) ->
          Proto.Gb_req { group = g.gid; view_id = g.view.View.view_id; uid; body }
      in
      send_frame t ~dst:c frame
    | None ->
      (* Every member site is suspected: there is no coordinator to run
         the change.  Dropping the event here silently stalled the
         group; instead park it and re-probe — either a suspicion
         clears (and routing finds the new coordinator) or the copy is
         eventually torn down. *)
      trace_event t Obs_event.Note (fun () ->
          Obs_event.Error_event
            {
              site = t.my_site;
              what = "no-live-coordinator";
              detail = Printf.sprintf "g%d" (gi g.gid);
            });
      enqueue_event g ev;
      after t g ~delay:500_000 (fun () -> reroute_pending t g))

(* Hand every queued event to whoever coordinates now. *)
and reroute_pending t g =
  let evs = g.pending_events in
  g.pending_events <- [];
  List.iter (fun ev -> route_event t g ev) evs

(* Drop the failure suspicions of [site]'s members, whose suspicion has
   just cleared. *)
let not_suspicion_of site = function Ev_fail (p, false) -> p.Addr.site <> site | _ -> true

(* A probe reply showed [site] is reachable and still at our view:
   clear the suspicion, drop its members' suspicion-based failure
   records from the queue (which holds the minority's batch), and rerun
   the change — if quorum now holds, the ordinary flush commits (its
   commit unwedges the whole component, even with an empty event
   batch); otherwise we re-enter the minority state and keep probing. *)
let minority_recover t g ~site =
  g.suspects <- Int_set.remove site g.suspects;
  g.pending_events <- List.filter (not_suspicion_of site) g.pending_events;
  g.minority <- None;
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_exit
        { site = t.my_site; group = gi g.gid; view_id = g.view.View.view_id });
  (* Clearing the suspicion may hand coordinatorship back to the
     recovered site: route the parked events instead of running the
     change from here. *)
  if i_am_coord t g then start_change t g else reroute_pending t g

let restart_change t g =
  (* A failure interrupted the flush: requeue the unprocessed batch and
     run again with fresh suspicions folded in. *)
  (match g.change with
  | Some c when not c.c_committed -> requeue g c.c_batch
  | Some _ | None -> g.change <- None);
  maybe_start_change t g

let on_wedge t ~src g ~view_id ~attempt ~coord_site ~coord_epoch =
  if view_id < g.view.View.view_id then (
    (* We already committed past this view.  Two very different cases
       hide behind that comparison.  If our commit is for this very
       view change (a prior coordinator died after partially fanning it
       out), hand the frame to the new coordinator so it re-broadcasts
       instead of re-deciding.  Otherwise the lineages have diverged —
       e.g. a wedged minority coordinator revived after the primary
       moved several views on — and answering with an empty Wedge_ack
       would let the stale coordinator count us towards ITS quorum and
       commit a rival view under a recycled view id (split brain).
       Refuse with a probe reply: seeing the newer id makes the stale
       copy tear itself down and rejoin fresh. *)
    match g.last_commit with
    | Some (Proto.Commit c as frame) when c.view_id = view_id ->
      send_frame t ~dst:src
        (Proto.Wedge_ack
           {
             group = g.gid;
             view_id;
             attempt;
             from_site = t.my_site;
             cb_known = [];
             ab_report = [];
             ab_counter = 0;
             already_committed = Some frame;
           })
    | Some _ | None -> send_current_view t ~dst:src g)
  else if view_id = g.view.View.view_id then begin
    let dominated =
      match g.wedge with
      | None -> true
      | Some w -> attempt > w.w_attempt || (attempt = w.w_attempt && coord_site <= w.w_coord)
    in
    if dominated then begin
      g.wedge <- Some { w_attempt = attempt; w_coord = coord_site; w_epoch = coord_epoch };
      g.last_attempt <- max g.last_attempt attempt;
      trace_event t Obs_event.Proto (fun () ->
          Obs_event.Wedge { site = t.my_site; group = gi g.gid; view_id });
      (* If we were coordinating a lower-precedence change, abandon it.
         The batch goes back in the queue, and a delayed re-propose
         covers the case where the winning wedge never turns into a
         commit — e.g. it was a minority component's wedge and its
         owner recovered (abandoning it) rather than committing.
         Without the retry both flushes die and the group stays wedged
         with undrained state until the end of time. *)
      (match g.change with
      | Some c when coord_site <> t.my_site ->
        if c.c_committed then g.change <- None else requeue g c.c_batch;
        after t g ~delay:500_000 (fun () -> maybe_start_change t g)
      | Some _ | None -> ());
      let cb_known = Uid_map.fold (fun uid s acc -> match s with Proto.Scb _ -> uid :: acc | Proto.Sab _ -> acc) g.store [] in
      let ab_store =
        Uid_map.fold
          (fun uid s acc ->
            match s with
            | Proto.Sab { prio; _ } ->
              { Proto.ab_uid = uid; ab_prio = prio; ab_committed = true; ab_origin = uid.usite } :: acc
            | Proto.Scb _ -> acc)
          g.store []
      in
      let ab_pending =
        List.map
          (fun (uid, prio, committed, _has_payload) ->
            { Proto.ab_uid = uid; ab_prio = prio; ab_committed = committed; ab_origin = uid.usite })
          (Total.pending g.total)
      in
      send_frame t ~dst:src
        (Proto.Wedge_ack
           {
             group = g.gid;
             view_id;
             attempt;
             from_site = t.my_site;
             cb_known;
             ab_report = ab_store @ ab_pending;
             ab_counter = Total.counter g.total;
             already_committed = None;
           })
    end
    else
      (* A competing wedge that loses to the one we hold.  Refusing
         silently starves the losing coordinator: it keeps waiting for
         our ack while the winner proceeds, and if the winner then
         dies or abandons (a recovered minority wedge), neither flush
         ever finishes.  Echo the winning wedge so the loser adopts
         it, abandons its change, and re-proposes later if the flush
         stalls. *)
      match g.wedge with
      | Some w when src <> t.my_site ->
        send_frame t ~dst:src
          (Proto.Wedge
             {
               group = g.gid;
               view_id;
               attempt = w.w_attempt;
               coord_site = w.w_coord;
               coord_epoch = w.w_epoch;
             })
      | Some _ | None -> ()
  end
  (* view_id > current: the sender installed views we never saw — we
     are on the dead side of a partition; our own probe/commit path
     will discover and handle the eviction. *)

let body_for t g u =
  match Uid_map.find_opt u g.store with
  | Some s -> Some s
  | None -> (
    match Total.payload_of g.total u with
    | Some body -> Some (Proto.Sab { uid = u; prio = (0, 0); body })
    | None ->
      trace_event t Obs_event.Note (fun () ->
          Obs_event.Error_event
            {
              site = t.my_site;
              what = "body-missing";
              detail = Printf.sprintf "g%d u%d.%d" (gi g.gid) u.usite u.useq;
            });
      None)

let on_fetch t ~src g ~view_id ~attempt uids =
  let bodies = List.filter_map (fun u -> body_for t g u) uids in
  send_frame t ~dst:src
    (Proto.Fetch_reply { group = g.gid; view_id; attempt; from_site = t.my_site; bodies })

let build_commit t g c events gb_bodies =
  (* Re-derive the stabilization decisions from the acks (deterministic
     given [c], so this agrees with what [proceed_with_acks] fetched)
     and pair them with the bodies: local store/engine plus fetched,
     with the Sab priorities fixed to the final values. *)
  let r = resolve_acks ~gid:(gi g.gid) ~view_id:g.view.View.view_id c in
  let fetched = c.c_fetched in
  let lookup u =
    match List.find_opt (fun s -> uid_equal (Proto.stored_uid s) u) fetched with
    | Some s -> Some s
    | None -> body_for t g u
  in
  let stab_cb = List.filter_map lookup r.r_missing_cb in
  let stab_ab =
    List.filter_map
      (fun (u, prio) ->
        match lookup u with
        | Some (Proto.Sab { uid; body; _ }) -> Some (Proto.Sab { uid; prio; body })
        | Some (Proto.Scb _) | None -> None)
      r.r_ab_missing
  in
  (* The successor id derives from the committing attempt.  Attempt and
     view advance in lockstep when changes are uncontested, so this is
     the familiar [view_id + 1]; under contention a takeover runs at a
     strictly higher attempt, so a stale coordinator that still manages
     to commit (it cannot be fenced behind a partition) produces a view
     id its successor never reuses — stale-side state is then
     detectably old instead of colliding with the primary's. *)
  let new_view = View.apply ~id:(c.c_attempt + 1) g.view events in
  Proto.Commit
    {
      group = g.gid;
      view_id = g.view.View.view_id;
      attempt = c.c_attempt;
      coord_site = t.my_site;
      coord_epoch = Endpoint.epoch (endpoint t);
      stabilize = stab_cb @ stab_ab;
      ab_finalize = r.r_ab_finalize;
      ab_drop = r.r_ab_drop;
      events;
      new_view;
      gname = g.gname;
      gb_bodies;
    }

let finish_change t g c =
  (* Validate joins, prune stale events, build the new view. *)
  let validate joiner cred =
    match g.join_validator with
    | Some (vp, f) when proc_alive vp -> f joiner cred
    | Some _ | None -> true
  in
  (* A suspicion of a member whose site ACKED this very flush is stale
     by contradiction — the site is answering us right now.  (Typical
     source: a partition-era report delivered after the heal.)  Dropping
     it keeps a provably-present member; if the reporter still cannot
     reach the site it will re-report and a later flush can evict.
     Certain deaths are never second-guessed. *)
  let batch =
    List.filter
      (function
        | Ev_fail (p, false) -> not (Hashtbl.mem c.c_acks p.Addr.site)
        | _ -> true)
      c.c_batch
  in
  (* Members this commit removes, computed over the whole batch up
     front so GBCAST filtering below can consult it regardless of event
     order within the batch. *)
  let removed =
    List.filter_map
      (function
        | (Ev_leave p | Ev_fail (p, _)) when View.is_member g.view p -> Some p
        | _ -> None)
      batch
  in
  (* A queued user GBCAST whose originating site no longer hosts a
     surviving member must not ride this flush: delivering it would
     hand the group a message from a sender AFTER the view change that
     evicted it.  (The grain is per-site because a uid names only the
     originating site; with one group member per site — the only
     configuration the simulator drives — this is exact.) *)
  let origin_survives (uid : Types.uid) =
    List.exists
      (fun (m : Addr.proc) ->
        m.Addr.site = uid.Types.usite && not (List.exists (Addr.equal_proc m) removed))
      g.view.View.members
  in
  let events, gb_bodies, refused =
    List.fold_left
      (fun (evs, gbs, refs) ev ->
        match ev with
        | Ev_join (p, cred) ->
          if View.is_member g.view p then (evs, gbs, refs)
          else if validate p cred then (evs @ [ View.Member_joined p ], gbs, refs)
          else (evs, gbs, refs @ [ p ])
        | Ev_leave p ->
          if View.is_member g.view p then (evs @ [ View.Member_left p ], gbs, refs) else (evs, gbs, refs)
        | Ev_fail (p, _) ->
          if View.is_member g.view p then (evs @ [ View.Member_failed p ], gbs, refs)
          else (evs, gbs, refs)
        | Ev_gb (uid, body) ->
          if origin_survives uid then (evs, gbs @ [ (uid, body) ], refs) else (evs, gbs, refs))
      ([], [], []) batch
  in
  List.iter
    (fun (p : Addr.proc) ->
      send_frame t ~dst:p.Addr.site
        (Proto.Join_refused { group = g.gid; joiner = p; reason = "join refused by validator" }))
    refused;
  (* Recompute finalization data (kept from proceed_with_acks via
     re-derivation: we stored only fetched bodies; recompute the rest). *)
  let commit = build_commit t g c events gb_bodies in
  let dests =
    List.sort_uniq compare
      (c.c_sites
      @ List.filter_map
          (function View.Member_joined (p : Addr.proc) -> Some p.Addr.site | _ -> None)
          events)
  in
  c.c_committed <- true;
  Stats.Counter.incr t.ctrs "prim.gbcast";
  List.iter (fun dst -> send_frame t ~dst commit) dests

let proceed_with_acks t g c =
  (* Someone already holds a commit from a dead coordinator for this
     view: re-broadcast it verbatim, requeue our batch, and let the
     commit drive everyone forward. *)
  match
    Hashtbl.fold
      (fun _ a acc -> match acc with Some _ -> acc | None -> a.a_already)
      c.c_acks None
  with
  | Some commit_frame ->
    requeue g c.c_batch;
    List.iter (fun dst -> send_frame t ~dst commit_frame) c.c_sites
  | None ->
    (* Which CBCAST / finalized-ABCAST bodies are missing somewhere? *)
    let r = resolve_acks ~gid:(gi g.gid) ~view_id:g.view.View.view_id c in
    let needed = r.r_missing_cb @ List.map fst r.r_ab_missing in
    (* Who holds each needed body?  Prefer ourselves. *)
    let holder_of u =
      let has s =
        match Hashtbl.find_opt c.c_acks s with
        | Some a -> Uid_set.mem u a.a_cb_known || Uid_set.mem u a.a_ab_uids
        | None ->
          invalid_arg
            (Printf.sprintf
               "Runtime.proceed_with_acks: no wedge ack from site %d (group g%d view %d \
                attempt %d)"
               s (gi g.gid) g.view.View.view_id c.c_attempt)
      in
      if has t.my_site then t.my_site
      else (
        match List.find_opt has c.c_sites with
        | Some s -> s
        | None -> t.my_site (* unreachable: needed means someone has it *))
    in
    let by_holder = Hashtbl.create 4 in
    List.iter
      (fun u ->
        let h = holder_of u in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_holder h) in
        Hashtbl.replace by_holder h (u :: cur))
      needed;
    let local_bodies =
      match Hashtbl.find_opt by_holder t.my_site with
      | Some uids -> List.filter_map (fun u -> body_for t g u) uids
      | None -> []
    in
    Hashtbl.remove by_holder t.my_site;
    c.c_fetched <- local_bodies;
    let remote_holders = Hashtbl.fold (fun s uids acc -> (s, uids) :: acc) by_holder [] in
    if remote_holders = [] then finish_change t g c
    else begin
      c.c_fetch_wait <- List.map fst remote_holders;
      List.iter
        (fun (s, uids) ->
          send_frame t ~dst:s
            (Proto.Fetch { group = g.gid; view_id = g.view.View.view_id; attempt = c.c_attempt; uids }))
        remote_holders
    end

let on_wedge_ack t g ~from_site ~attempt ack =
  match g.change with
  | Some c when c.c_attempt = attempt && List.mem from_site c.c_sites ->
    (* The [c_sites] guard matters: a site excluded from the flush as
       suspected can recover in mid-change and ack the broadcast wedge
       anyway.  The quorum test counts acks, so an out-of-set ack would
       let the flush proceed while a participant is still missing
       (resolve_acks then has no report to consult for it).  The
       recovered site is evicted by this view and rejoins. *)
    if not (Hashtbl.mem c.c_acks from_site) then begin
      Hashtbl.replace c.c_acks from_site ack;
      if Hashtbl.length c.c_acks = List.length c.c_sites then proceed_with_acks t g c
    end
  | Some _ | None -> ()

let on_fetch_reply t g ~from_site ~attempt bodies =
  match g.change with
  | Some c when c.c_attempt = attempt && List.mem from_site c.c_fetch_wait ->
    c.c_fetch_wait <- List.filter (fun s -> s <> from_site) c.c_fetch_wait;
    c.c_fetched <- c.c_fetched @ bodies;
    if c.c_fetch_wait = [] then finish_change t g c
  | Some _ | None -> ()

(* Discard this site's copy of [g], releasing its queued ABCASTs, the
   owners of its unstable multicasts and its failure-detector
   subscriptions to [sites]. *)
let drop_copy t g sites =
  drop_ab_queue g;
  settle_unstables g;
  List.iter (fun site -> Endpoint.unmonitor (endpoint t) ~site) sites;
  Hashtbl.remove t.groups (gi g.gid)

let rec on_commit t ~src g_opt frame =
  match frame with
  | Proto.Commit
      { group; view_id; attempt; coord_site; coord_epoch; stabilize; ab_finalize; ab_drop;
        events; new_view; gname; gb_bodies; _ } -> (
    let install g_old =
      (* 1. Fill gaps. *)
      (match g_old with
      | Some g ->
        List.iter
          (fun s ->
            match s with
            | Proto.Scb { uid; rank; vt; body } ->
              if not (Causal.seen g.causal uid) then begin
                match vt with
                | Some l when rank >= 0 ->
                  Causal.receive g.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
                | Some _ | None -> Causal.receive_fifo g.causal ~uid body
              end
            | Proto.Sab { uid; prio; body } ->
              Total.commit g.total ~uid prio;
              Total.add_payload g.total ~uid body)
          stabilize;
        List.iter (fun (uid, prio) -> Total.commit g.total ~uid prio) ab_finalize;
        List.iter (fun uid -> try Total.drop g.total ~uid with Invalid_argument _ -> ()) ab_drop;
        (* 2. Deliver everything of the retiring view. *)
        let old_members = local_members t g in
        let deliver uid body =
          trace_event t Obs_event.Proto (fun () ->
              Obs_event.Deliver
                { site = t.my_site; group = gi g.gid; usite = uid.usite; useq = uid.useq });
          (* Delivery at the synchronization point is also the moment the
             message's protocol state is discharged: report it stable so
             per-uid timelines complete without a Stable round. *)
          trace_event t Obs_event.Proto (fun () ->
              Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
          deliver_to_members t body ~members:old_members
        in
        List.iter (fun (u, b) -> deliver u b) (Causal.force_drain g.causal);
        List.iter (fun (u, _, b) -> deliver u b) (Total.drain g.total);
        (* Anything still pending is uncommitted garbage; discard. *)
        List.iter
          (fun (u, _, _, _) -> try Total.drop g.total ~uid:u with Invalid_argument _ -> ())
          (Total.pending g.total)
      | None -> ());
      (* 3. Install the view. *)
      let old_sites = match g_old with Some g -> View.sites g.view | None -> [] in
      let g =
        match g_old with
        | Some g -> g
        | None ->
          let g = make_group t ~gid:group ~gname ~view:new_view in
          Hashtbl.replace t.groups (gi group) g;
          g
      in
      (* Resolve this site's own change record: if it was the one just
         committed, its batch is consumed; if it was a different
         (superseded) change, requeue its batch for another round. *)
      (match g.change with
      | Some c when c.c_committed -> g.change <- None
      | Some c -> requeue g c.c_batch
      | None -> ());
      (* Every member site can answer directory queries for its groups,
         so the name outlives the creator site. *)
      if not (String.equal gname "") then
        dir_set t gname (group, View.sites new_view);
      g.view <- new_view;
      g.causal <- Causal.create ~n_ranks:(View.n_members new_view) ();
      g.total <- Total.create ~site:t.my_site ();
      g.store <- Uid_map.empty;
      g.wedge <- None;
      g.minority <- None;
      g.last_commit <- Some frame;
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
                  (List.map
                     (fun (m : Addr.proc) -> (m.Addr.site, m.Addr.idx))
                     new_view.View.members);
            });
      g.suspects <- Int_set.inter g.suspects new_site_set;
      (* Failure is sticky until a rejoin: record processes this change
         removed as failed, and clear any that just (re)joined. *)
      g.failed_procs <-
        List.fold_left
          (fun acc ev ->
            match ev with
            | View.Member_failed p -> p :: acc
            | View.Member_joined p -> List.filter (fun q -> not (Addr.equal_proc q p)) acc
            | View.Member_left _ -> acc)
          g.failed_procs events;
      (* Old-view unstable records of this group are settled by the
         flush. *)
      settle_unstables g;
      (* The flush settled every outstanding ABCAST round of the old
         view; the origination pipeline restarts empty in the new one
         (queued sends dispatch below, before the blocked replay, which
         preserves acceptance order). *)
      g.ab_inflight <- 0;
      dispatch_abcasts t g;
      remember_contacts t group (View.sites new_view);
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
      (* 4. Deliver user GBCASTs at the synchronization point. *)
      List.iter
        (fun (uid, body) ->
          trace_event t Obs_event.Proto (fun () ->
              Obs_event.Deliver
                { site = t.my_site; group = gi group; usite = uid.usite; useq = uid.useq });
          (* A GBCAST is stable the instant it commits: delivered at the
             synchronization point, everywhere, with nothing left to
             retransmit. *)
          trace_event t Obs_event.Proto (fun () ->
              Obs_event.Stabilize { site = t.my_site; usite = uid.usite; useq = uid.useq });
          deliver_to_members t body ~members:(local_members t g))
        gb_bodies;
      (* GBCASTs this commit delivered are done, wherever they still
         wait: ours in [gb_outstanding], and queued requests (a
         minority's batch, or a superseded change's) in the queue.  The
         rest of ours are re-routed below once the new view's
         coordinator is known. *)
      let delivered u = List.exists (fun (u', _) -> u' = u) gb_bodies in
      g.gb_outstanding <- List.filter (fun (u, _) -> not (delivered u)) g.gb_outstanding;
      g.pending_events <-
        List.filter (function Ev_gb (u, _) -> not (delivered u) | _ -> true) g.pending_events;
      (* 4b. Open reply collections waiting on a removed member will
         never hear from it: discount it now. *)
      List.iter
        (function
          | View.Member_failed p | View.Member_left p -> note_removed_member t p
          | View.Member_joined _ -> ())
        events;
      (* 5. Monitors and waiters.  The view event is scheduled through
         the same intra-site hop as message deliveries so that every
         local process observes the retiring view's deliveries BEFORE
         the membership change — same order at every member. *)
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
          | View.Member_joined p when p.Addr.site = t.my_site -> (
            match jw_take t ~gid_int:(gi group) ~idx:p.Addr.idx with
            | Some iv -> Ivar.fill iv (Ok ())
            | None -> ())
          | View.Member_left p when p.Addr.site = t.my_site -> (
            match Hashtbl.find_opt t.leave_waiters (gi group, p.Addr.idx) with
            | Some iv ->
              Hashtbl.remove t.leave_waiters (gi group, p.Addr.idx);
              Ivar.fill iv ()
            | None -> ())
          | View.Member_joined _ | View.Member_left _ | View.Member_failed _ -> ())
        events;
      (* 6. Failure detector subscriptions follow the membership. *)
      if local_members t g <> [] then begin
        let ep = endpoint t and old_site_set = Int_set.of_list old_sites in
        Int_set.iter (fun site -> Endpoint.monitor ep ~site) (Int_set.diff new_site_set old_site_set);
        Int_set.iter (fun site -> Endpoint.unmonitor ep ~site) (Int_set.diff old_site_set new_site_set)
      end;
      (* 7. Unwedge: rerun blocked operations in order, then replay any
         frames that arrived for the new view early.  Re-origination
         goes back through [origin_multicast], whose failed-sender check
         discards sends queued by a member this very commit removed as
         failed — replaying those would re-inject them as client relays
         of the new view. *)
      let blocked = List.rev g.blocked_sends in
      g.blocked_sends <- [];
      List.iter (fun (owner, mode, body) -> origin_multicast t g mode ~owner body) blocked;
      replay_held t (gi group);
      (* 8. A group whose membership is empty dissolves. *)
      if View.n_members new_view = 0 then begin
        drop_copy t g new_sites;
        Hashtbl.remove t.contacts (gi group);
        Condition.broadcast t.admission
      end
      else begin
        (* A suspicion that survived the change means the matching
           eviction report went missing — e.g. it was routed to a
           coordinator that a partition (or its death) swallowed.
           Re-propose it against the new view, so failure reports
           converge to an eviction no matter how many are lost in
           flight; duplicates collapse in the coordinator's queue. *)
        List.iter
          (fun (m : Addr.proc) ->
            if m.Addr.site <> t.my_site && Int_set.mem m.Addr.site g.suspects then
              route_event t g (Ev_fail (m, false)))
          new_view.View.members;
        (* Same convergence story for our undelivered GBCASTs: the
           request may be parked at a coordinator this change evicted
           (or a partition swallowed), so re-issue it against the new
           view until some commit carries it.  Duplicates collapse by
           uid in the coordinator's queue. *)
        List.iter (fun (uid, body) -> route_event t g (Ev_gb (uid, body))) (List.rev g.gb_outstanding);
        if i_am_coord t g then maybe_start_change t g
        else
          (* Leadership moved with the new view: hand queued events to
             the coordinator that can actually run them. *)
          reroute_pending t g;
        (* A site left without any local member is out of the group:
           drop its copy of the state (it will no longer receive
           commits). *)
        if local_members t g = [] then begin
          drop_copy t g new_sites;
          Condition.broadcast t.admission
        end
      end
    in
    match g_opt with
    | Some g when view_id = g.view.View.view_id ->
      (* Fence the commit against the wedge actually in force here.  A
         coordinator the flush has moved past (its wedge superseded by
         a higher-precedence one) must not finalize: accepting its
         commit while the current coordinator is still collecting acks
         forks the view history.  Acceptable commits: from the exact
         coordinator we are wedged under — same attempt, same site,
         and the same endpoint epoch, so a crashed-and-restarted
         coordinator's ghost commit is rejected; from the wedge-holder
         site itself rebroadcasting a dead predecessor's commit (the
         already-committed recovery path); or carrying an attempt that
         dominates our wedge outright. *)
      let accept =
        match g.wedge with
        | None -> true
        | Some w ->
          if attempt = w.w_attempt && coord_site = w.w_coord then coord_epoch = w.w_epoch
          else if src = w.w_coord then true
          else attempt > w.w_attempt || (attempt = w.w_attempt && coord_site < w.w_coord)
      in
      if accept then install (Some g)
      else
        trace_event t Obs_event.Note (fun () ->
            Obs_event.Error_event
              {
                site = t.my_site;
                what = "fenced-commit";
                detail = Printf.sprintf "g%d v%d a%d from s%d" (gi group) view_id attempt src;
              })
    | Some _ -> () (* stale or repeated commit *)
    | None ->
      (* Joiner site (or rebroadcast): only meaningful if we host one of
         the new members. *)
      if List.exists (fun (m : Addr.proc) -> m.Addr.site = t.my_site) new_view.View.members
      then install None)
  | _ -> invalid_arg "on_commit: not a commit frame"

and replay_held t gid_int =
  match Hashtbl.find_opt t.held gid_int with
  | None -> ()
  | Some frames ->
    Hashtbl.remove t.held gid_int;
    List.iter (fun (src, f) -> handle_group_frame t ~src f) (List.rev frames)

and handle_group_frame t ~src frame =
  let with_group gid view_id k =
    match group_of t gid with
    | Some g ->
      if view_id = g.view.View.view_id then
        if g.wedge <> None then () (* wedged: post-ack data is dropped; the flush stabilizes *)
        else k g
      else if view_id > g.view.View.view_id then hold_frame t ~src (gi gid) frame
      else if not (List.mem src (View.sites g.view)) then
        (* Stale data from a site outside the current view: a stale
           coordinator that managed to commit a divergent (lower-id)
           view before the primary moved past it, still sending under
           the dead lineage. *)
        send_current_view t ~dst:src g
      (* else: stale view from a member, drop (normal retransmit tail) *)
    | None ->
      (* No state for this group: hold the frame only when a local join
         is in flight (new-view data racing its Commit here).  Without a
         joiner nothing will ever replay the buffer — e.g. a restarted
         site whose dead member is still listed in the senders' view
         would accumulate frames without bound. *)
      if jw_any t (gi gid) then hold_frame t ~src (gi gid) frame
  in
  (* Membership requests are only honoured from sites inside the
     current view; anyone else is told which view is current. *)
  let from_member group k =
    match group_of t group with
    | Some g -> if List.mem src (View.sites g.view) then k g else send_current_view t ~dst:src g
    | None -> ()
  in
  let with_copy group k = match group_of t group with Some g -> k g | None -> () in
  match frame with
  | Proto.Cb_data { group; view_id; uid; rank; vt; body } ->
    with_group group view_id (fun g ->
        (* A duplicate (retransmit, or a replay of something already
           stabilized and GC'd) must not re-create a store copy the
           [Stable] flow already collected. *)
        if not (Causal.seen g.causal uid) then begin
          g.store <- Uid_map.add uid (Proto.Scb { uid; rank; vt; body }) g.store;
          (match vt with
          | Some l when rank >= 0 ->
            Causal.receive g.causal ~uid ~rank ~vt:(Vsync_util.Vclock.of_list l) body
          | Some _ | None -> Causal.receive_fifo g.causal ~uid body);
          drain_group t g
        end)
  | Proto.Ab_data { group; view_id; uid; body } ->
    with_group group view_id (fun g ->
        let prio = Total.intake g.total ~uid body in
        send_frame t ~dst:src (Proto.Ab_prio { group; view_id; uid; prio }))
  | Proto.Ab_prio { group; view_id; uid; prio } ->
    with_group group view_id (fun g -> on_ab_prio t g ~src uid prio)
  | Proto.Ab_commit { group; view_id; uid; prio } ->
    with_group group view_id (fun g ->
        Total.commit g.total ~uid prio;
        drain_group t g)
  | Proto.Join_req { group; joiner; credentials } -> (
    match group_of t group with
    | Some g -> route_event t g (Ev_join (joiner, credentials))
    | None ->
      send_frame t ~dst:joiner.Addr.site
        (Proto.Join_refused { group; joiner; reason = "no such group at contact site" }))
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
      match jw_take t ~gid_int:(gi group) ~idx:joiner.Addr.idx with
      | Some iv ->
        (* Frames held in anticipation of the join have no replayer
           now (unless another local joiner is still waiting). *)
        if group_of t group = None && not (jw_any t (gi group)) then
          Hashtbl.remove t.held (gi group);
        Ivar.fill iv (Error reason)
      | None -> ())
  | Proto.Leave_req { group; who } -> from_member group (fun g -> route_event t g (Ev_leave who))
  | Proto.Proc_failed { group; who; certain } -> (
    match group_of t group with
    | Some g ->
      (* Suspicion reports are only credible from sites inside the
         current view: a site evicted by a partition keeps pinging
         with stale reachability state, and accepting its suspicions
         after its eviction lets a dead lineage evict live members of
         the primary component.  CERTAIN reports (the victim's own
         site witnessed the death) are ground truth and stay welcome
         from anyone — an old coordinator that just left the view
         still forwards queued kill reports to its successor. *)
      if certain || List.mem src (View.sites g.view) then route_event t g (Ev_fail (who, certain))
      else send_current_view t ~dst:src g
    | None -> ())
  | Proto.Gb_req { group; view_id; uid; body } ->
    (* A GBCAST request from a site outside the current view: the
       sender was evicted while its request sat in a retransmit queue
       (partition).  Honouring it would deliver a message from the
       evicted member AFTER the view change that removed it — exactly
       what the flush exists to forbid.  A request routed in an older
       view is dropped, as data frames are: an install in between may
       have delivered it, and if not, its origin re-routes it. *)
    from_member group (fun g ->
        if view_id >= g.view.View.view_id then route_event t g (Ev_gb (uid, body)))
  | Proto.Wedge { group; view_id; attempt; coord_site; coord_epoch } ->
    with_copy group (fun g -> on_wedge t ~src g ~view_id ~attempt ~coord_site ~coord_epoch)
  | Proto.Wedge_ack { group; attempt; from_site; cb_known; ab_report; ab_counter; already_committed; _ } ->
    with_copy group (fun g ->
        on_wedge_ack t g ~from_site ~attempt
          (* The wire carries plain lists; index them once on receipt so
             the flush reconciliation runs on sets. *)
          {
            a_cb_known = Uid_set.of_list cb_known;
            a_ab_uids =
              Uid_set.of_list (List.map (fun (r : Proto.ab_report) -> r.Proto.ab_uid) ab_report);
            a_ab_report = ab_report;
            a_ab_counter = ab_counter;
            a_already = already_committed;
          })
  | Proto.Fetch { group; view_id; attempt; uids } ->
    with_copy group (fun g -> on_fetch t ~src g ~view_id ~attempt uids)
  | Proto.Fetch_reply { group; attempt; from_site; bodies; _ } ->
    with_copy group (fun g -> on_fetch_reply t g ~from_site ~attempt bodies)
  | Proto.Commit { group; _ } -> on_commit t ~src (group_of t group) frame
  | _ -> invalid_arg "handle_group_frame: not a group frame"

(* --- failure handling --- *)

let on_site_down ?(certain = false) t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "down" });
  List.iter (fun w -> w (`Down s)) t.site_watchers;
  (* Purge the dead site from name-resolution hints FIRST: failing the
     open sessions resumes their callers, whose retries must see fresh
     hints. *)
  forget_site t s;
  session_site_down t s;
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [] in
  List.iter
    (fun g ->
      (* A certain death (incarnation change) is always re-reported,
         even for a site already under suspicion: the earlier
         suspicion-based report may have been lost in flight (routed to
         a coordinator across a partition), and certainty additionally
         shrinks the primary-partition quorum base. *)
      if List.mem s (View.sites g.view) && (certain || not (Int_set.mem s g.suspects)) then begin
        g.suspects <- Int_set.add s g.suspects;
        let victims = View.members_at_site g.view s in
        if i_am_coord t g then begin
          List.iter (fun v -> enqueue_event g (Ev_fail (v, certain))) victims;
          (* A change in flight that involved the dead site must restart. *)
          match g.change with
          | Some c when List.mem s c.c_sites -> restart_change t g
          | Some _ -> ()
          | None -> maybe_start_change t g
        end
        else
          (* Tell the acting coordinator (it may not share our failure
             detector's view yet). *)
          List.iter (fun v -> route_event t g (Ev_fail (v, certain))) victims
      end)
    groups

let on_site_up t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "up" });
  List.iter (fun w -> w (`Up s)) t.site_watchers

(* The ping detector heard back from a site it had declared down: the
   suspicion was about reachability, not death.  Retract it wherever it
   has not yet been acted on — a suspicion that already rode a commit
   is final (the eviction is part of the view history; the site
   rejoins), but one still pending must stop circulating, or the
   install-time re-propose keeps the group churning empty view changes
   forever after the network heals. *)
let on_site_recovered t s =
  trace_event t Obs_event.Note (fun () ->
      Obs_event.Site_status { site = t.my_site; peer = s; status = "reachable" });
  List.iter (fun w -> w (`Up s)) t.site_watchers;
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) t.groups [] in
  List.iter
    (fun g ->
      if List.mem s (View.sites g.view) && Int_set.mem s g.suspects then
        match g.minority with
        | Some _ -> minority_recover t g ~site:s
        | None ->
          g.suspects <- Int_set.remove s g.suspects;
          g.pending_events <- List.filter (not_suspicion_of s) g.pending_events;
          (* Coordinatorship may have moved back to the recovered site:
             hand it any events parked here. *)
          if not (i_am_coord t g) then reroute_pending t g)
    groups
