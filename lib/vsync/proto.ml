open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

type stored =
  | Scb of { uid : uid; rank : int; vt : int list option; ack : bool; body : Message.t }
  | Sab of { uid : uid; prio : prio; ack : bool; body : Message.t }

let stored_uid = function Scb { uid; _ } -> uid | Sab { uid; _ } -> uid

type ab_report = {
  ab_uid : uid;
  ab_prio : prio;
  ab_committed : bool;
  ab_origin : int;
}

type frame =
  | Cb_data of {
      group : Addr.group_id;
      view_id : int;
      uid : uid;
      rank : int;
      vt : int list option;
      ack : bool;
      body : Message.t;
    }
  | Ab_data of { group : Addr.group_id; view_id : int; uid : uid; ack : bool; body : Message.t }
  | Ab_prio of { group : Addr.group_id; view_id : int; uid : uid; prio : prio }
  | Ab_commit of { group : Addr.group_id; view_id : int; uid : uid; prio : prio }
  | Deliver_ack of { group : Addr.group_id; uid : uid }
  | Stable of { group : Addr.group_id; uid : uid }
  | Ptp of { dest : Addr.proc; body : Message.t }
  | Obligation_failed of { session : int; responder : Addr.proc }
  | Join_req of { group : Addr.group_id; joiner : Addr.proc; credentials : Message.t }
  | Join_refused of { group : Addr.group_id; joiner : Addr.proc; reason : string }
  | Leave_req of { group : Addr.group_id; who : Addr.proc }
  | Proc_failed of {
      group : Addr.group_id;
      who : Addr.proc;
      certain : bool;
          (* true when the death is certain (reported by the victim's
             own site), false for suspicion-based eviction of an
             unreachable site.  Certain deaths shrink the quorum
             denominator of the primary-partition rule. *)
    }
  | Gb_req of {
      group : Addr.group_id;
      view_id : int;
          (* the sender's view when it routed the request: a receiver
             already past it drops the request, because the origin
             re-routes every undelivered GBCAST at each install *)
      uid : uid;
      body : Message.t;
    }
  | Wedge of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      coord_site : int;
      coord_epoch : int;
          (* the coordinator's transport incarnation; echoed back in
             the matching Commit so receivers can fence commits from a
             coordinator that crashed and restarted mid-flush. *)
    }
  | Wedge_ack of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      from_site : int;
      cb_known : uid list;
      ab_report : ab_report list;
      ab_counter : int;
          (* priority floor for coordinator-assigned finals *)
      already_committed : frame option;
          (* the Commit this site already applied for this view change,
             when a prior coordinator died after partially committing *)
    }
  | Fetch of { group : Addr.group_id; view_id : int; attempt : int; uids : uid list }
  | Fetch_reply of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      from_site : int;
      bodies : stored list;
    }
  | Commit of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      coord_site : int;
      coord_epoch : int;
          (* fencing identity: wedged receivers only accept a commit
             whose (attempt, coord_site) does not lose the wedge
             domination order to the flush they acked, and whose epoch
             matches that wedge — a stale coordinator finalizing after
             the primary moved on is dropped. *)
      stabilize : stored list;
      ab_finalize : (uid * prio) list;
      ab_drop : uid list;
      events : View.change list;
      new_view : View.t;
      gname : string;
      gb_bodies : (uid * Message.t) list;
    }
  | Dir_update of { name : string; group : Addr.group_id; sites : int list }
  | Dir_query of { name : string; qid : int }
  | Dir_reply of { qid : int; info : (string * Addr.group_id * int list) option }
  | Relay of {
      group : Addr.group_id;
      mode : mode;
      body : Message.t;
      session : int option;
      caller : Addr.proc;
    }
  | Relay_info of { session : int; responders : Addr.proc list }
  | Site_hello of { site : int; epoch : int }
  | View_probe of { group : Addr.group_id; view_id : int; from_site : int }
      (* sent by a wedged minority component to the sites it suspects:
         "has the group's view moved past [view_id]?"  Only flows on
         minority paths, so partition-free runs never carry it. *)
  | View_probe_reply of { group : Addr.group_id; view_id : int }
      (* [view_id] is the responder's installed view, or -1 when the
         responder holds no state for the group. *)

(* Size model: a fixed frame header plus the natural encoded widths of
   each component.  Application payloads use their true encoded size.
   A CBCAST's [ack] flag rides in a spare bit of its rank word, an
   ABCAST's in one of its uid's sequence word, and a stored ABCAST's in
   one of its priority. *)

let header = 16
let sz_uid = 12
let sz_prio = 8
let sz_addr = 8
let sz_int = 4

let sz_vt = function None -> 1 | Some l -> 1 + (sz_int * List.length l)

let sz_stored = function
  | Scb { vt; body; _ } -> sz_uid + sz_int + sz_vt vt + Message.size body
  | Sab { body; _ } -> sz_uid + sz_prio + Message.size body

let sz_list f l = List.fold_left (fun acc x -> acc + f x) sz_int l

let size = function
  | Cb_data { vt; body; _ } -> header + sz_int + sz_uid + sz_int + sz_vt vt + Message.size body
  | Ab_data { body; _ } -> header + sz_int + sz_uid + Message.size body
  | Ab_prio _ | Ab_commit _ -> header + sz_int + sz_uid + sz_prio
  | Deliver_ack _ | Stable _ -> header + sz_uid
  | Ptp { body; _ } -> header + sz_addr + Message.size body
  | Obligation_failed _ -> header + sz_int + sz_addr
  | Join_req { credentials; _ } -> header + sz_addr + Message.size credentials
  | Join_refused { reason; _ } -> header + sz_addr + String.length reason
  | Leave_req _ | Proc_failed _ -> header + sz_addr
  (* [view_id] is not counted: like the group ids and the
     [Wedge]/[Commit] epochs, it rides in [header]. *)
  | Gb_req { body; _ } -> header + sz_uid + Message.size body
  | Wedge _ -> header + (3 * sz_int)
  | Wedge_ack { cb_known; ab_report; _ } ->
    header + (3 * sz_int)
    + sz_list (fun _ -> sz_uid) cb_known
    + sz_list (fun _ -> sz_uid + sz_prio + 2) ab_report
  | Fetch { uids; _ } -> header + (2 * sz_int) + sz_list (fun _ -> sz_uid) uids
  | Fetch_reply { bodies; _ } -> header + (3 * sz_int) + sz_list sz_stored bodies
  | Commit { stabilize; ab_finalize; ab_drop; events; new_view; gname; gb_bodies; _ } ->
    header + (2 * sz_int) + String.length gname + sz_list sz_stored stabilize
    + sz_list (fun _ -> sz_uid + sz_prio) ab_finalize
    + sz_list (fun _ -> sz_uid) ab_drop
    + sz_list (fun _ -> 1 + sz_addr) events
    + (sz_int * 2)
    + (sz_addr * View.n_members new_view)
    + sz_list (fun (_, m) -> sz_uid + Message.size m) gb_bodies
  | Dir_update { name; sites; _ } ->
    header + String.length name + sz_int + sz_list (fun _ -> sz_int) sites
  | Dir_query { name; _ } -> header + String.length name + sz_int
  | Dir_reply { info; _ } -> (
    header + sz_int
    + match info with
      | None -> 1
      | Some (name, _, sites) -> String.length name + sz_int + sz_list (fun _ -> sz_int) sites)
  | Relay { body; _ } -> header + sz_int + 1 + Message.size body + sz_addr + sz_int
  | Relay_info { responders; _ } -> header + sz_int + sz_list (fun _ -> sz_addr) responders
  | Site_hello _ -> header + (2 * sz_int)
  | View_probe _ -> header + (3 * sz_int)
  | View_probe_reply _ -> header + (2 * sz_int)
