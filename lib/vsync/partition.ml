(* --- the minority side of a partition ---

   The coordinator of a component that lost its quorum must not install
   views: doing so on both sides of a split is exactly split-brain.
   Instead it wedges its whole component (blocking origination
   everywhere in it, via the ordinary wedge machinery) and probes the
   sites it suspects.  Three ways out: a probe reply shows a suspected
   site is reachable at our view (false alarm / heal before eviction) —
   fold it back in and rerun the change ([Membership.minority_recover]);
   a reply shows the primary partition has moved to a newer view
   without us — discard this dead copy so local members can rejoin
   fresh through state transfer; or the probes run dry for long enough
   that the group is assumed dissolved. *)

open State
open Origination

(* This site's copy of the group is dead: the primary partition
   installed view [new_view_id] without us (or probing ran dry,
   [new_view_id = -1]).  Discard all group state — unstable minority
   deliveries included — so local members can rejoin as fresh joiners
   and pull current state through the state-transfer toolkit.  Contacts
   and the name directory survive on purpose: they are how the rejoin
   finds the primary. *)
let partition_teardown t g ~new_view_id =
  let gid_int = gi g.gid in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_evict
        { site = t.my_site; group = gid_int; view_id = g.view.View.view_id; new_view_id });
  (* Let fellow component sites (which are wedged but hold no minority
     record) learn the verdict instead of wedging forever: a probe
     reply advertising a view beyond theirs makes them discard their
     copy too.  On a probing give-up there is no known primary view, so
     advertise the next id — the copy is dead either way. *)
  (match g.minority with
  | Some _ ->
    let verdict = if new_view_id >= 0 then new_view_id else g.view.View.view_id + 1 in
    List.iter
      (fun s ->
        if s <> t.my_site && not (Int_set.mem s g.suspects) then
          send_frame t ~dst:s (Proto.View_probe_reply { group = g.gid; view_id = verdict }))
      (View.sites g.view)
  | None -> ());
  g.minority <- None;
  (* Release every waiter parked on this copy. *)
  List.iter (fun (owner, _, _) -> init_done owner) (List.rev g.blocked_sends);
  g.blocked_sends <- [];
  drop_ab_queue g;
  settle_unstables t gid_int;
  Hashtbl.remove t.held gid_int;
  if jw_any t gid_int then
    Hashtbl.iter
      (fun (gid', idx) _ ->
        if gid' = gid_int then
          match jw_take t ~gid_int ~idx with
          | Some iv -> Ivar.fill iv (Error "partitioned: evicted from primary partition")
          | None -> ())
      (Hashtbl.copy t.join_waiters);
  Hashtbl.iter
    (fun (gid', idx) iv ->
      if gid' = gid_int then begin
        Hashtbl.remove t.leave_waiters (gid', idx);
        Ivar.fill iv ()
      end)
    (Hashtbl.copy t.leave_waiters);
  Hashtbl.iter
    (fun _ pr -> pr.memberships <- List.filter (fun g' -> g' <> gid_int) pr.memberships)
    t.procs;
  List.iter (fun s -> mon_release t s) (View.sites g.view);
  Hashtbl.remove t.groups gid_int;
  (* The local copy is gone, so this site must stop advertising itself
     as a contact for the group.  During the partition the failure
     detector purged the (unreachable) primary sites from the hints, so
     what's left typically points right back here — a rejoin that
     resolved the name locally would send its Join_req to this site and
     be refused.  Keep any surviving primary-side hints; if none
     remain, drop the entry entirely so the next lookup broadcasts a
     fresh directory query. *)
  drop_hint t ~gid_int ~site:t.my_site;
  (* Originators parked in [bcast_wait] on this copy re-check admission:
     a group with no local copy is never backpressured. *)
  Condition.broadcast t.admission

let rec schedule_minority_probe t g m =
  after t g ~delay:500_000 (fun () ->
      match g.minority with
      | Some m' when m' == m ->
        m.m_rounds <- m.m_rounds + 1;
        if m.m_rounds > 40 then
          (* Nothing answered for ~20s of probing: the rest of the group
             is gone (or we are irrecoverably cut off).  Treat this copy
             as dissolved rather than wedging forever. *)
          partition_teardown t g ~new_view_id:(-1)
        else begin
          trace_event t Obs_event.Partition (fun () ->
              Obs_event.Partition_probe
                { site = t.my_site; group = gi g.gid; view_id = g.view.View.view_id });
          (* Probe the suspects AND the sites of members this batch
             would have evicted: a stale suspicion can put a member in
             the batch without its site being in [suspects], and probing
             nobody would let the copy run dry against a perfectly
             healthy peer. *)
          let targets =
            List.fold_left
              (fun acc ev ->
                match ev with
                | Ev_fail (p, false) when p.Addr.site <> t.my_site -> Int_set.add p.Addr.site acc
                | _ -> acc)
              g.suspects m.m_batch
          in
          Int_set.iter
            (fun s ->
              send_frame t ~dst:s
                (Proto.View_probe
                   { group = g.gid; view_id = g.view.View.view_id; from_site = t.my_site }))
            targets;
          schedule_minority_probe t g m
        end
      | Some _ | None -> ())

(* A view-change attempt found this component below quorum: wedge it
   and start probing. *)
let enter_minority t g ~batch ~survivors ~certain =
  let attempt = g.last_attempt + 1 in
  g.last_attempt <- attempt;
  g.change <- None;
  let m = { m_attempt = attempt; m_batch = batch; m_rounds = 0 } in
  g.minority <- Some m;
  let base =
    List.filter
      (fun mem -> not (List.exists (Addr.equal_proc mem) certain))
      g.view.View.members
  in
  let needed = (List.length base / 2) + 1 in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_wedge
        {
          site = t.my_site;
          group = gi g.gid;
          view_id = g.view.View.view_id;
          survivors = List.length survivors;
          needed;
        });
  (* Wedge every reachable component site (self included) so that
     origination blocks component-wide, not just here. *)
  send_wedge t g ~attempt (component_sites t g);
  schedule_minority_probe t g m
