(* --- the minority side of a partition: probes and teardown ---

   The coordinator of a component that lost its quorum must not install
   views: doing so on both sides of a split is exactly split-brain.
   [Flush] decides instead to wedge the whole component and probe the
   sites it suspects.  Three ways out: a probe reply shows a suspected
   site is reachable at our view (false alarm / heal before eviction) —
   fold it back in and rerun the change; a reply shows the primary
   partition has moved to a newer view without us — discard this dead
   copy so local members can rejoin fresh through state transfer; or
   the probes run dry for long enough that the group is assumed
   dissolved.  This module sends the probes and runs the teardown. *)

open State
open Origination

(* This site's copy of the group is dead: the primary partition
   installed view [new_view_id] without us (or probing ran dry,
   [new_view_id = -1]).  Discard all group state — unstable minority
   deliveries included — so local members can rejoin as fresh joiners
   and pull current state through the state-transfer toolkit.  Contacts
   and the name directory survive on purpose: they are how the rejoin
   finds the primary.  The sites in [notify] are told the view id
   [verdict], so they discard their copies too. *)
let partition_teardown t g ~new_view_id ~verdict ~notify =
  let gid_int = gi g.gid in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_evict
        { site = t.my_site; group = gid_int; view_id = (view g).View.view_id; new_view_id });
  List.iter
    (fun s -> send_frame t ~dst:s (Proto.View_probe_reply { group = g.gid; view_id = verdict }))
    notify;
  (* Release every waiter parked on this copy. *)
  List.iter (fun (owner, _, _) -> init_done owner) (List.rev g.blocked_sends);
  g.blocked_sends <- [];
  drop_ab_queue g;
  settle_unstables g;
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
  List.iter (fun site -> Endpoint.unmonitor (endpoint t) ~site) (View.sites (view g));
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

(* Ask each of [sites] which view of [g] it holds. *)
let send_probes t g sites =
  let view_id = (view g).View.view_id in
  trace_event t Obs_event.Partition (fun () ->
      Obs_event.Partition_probe { site = t.my_site; group = gi g.gid; view_id });
  List.iter
    (fun dst -> send_frame t ~dst (Proto.View_probe { group = g.gid; view_id; from_site = t.my_site }))
    sites
