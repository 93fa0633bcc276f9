(** Inter-site protocol frames.

    Everything the per-site protocols processes say to each other: the
    data paths of the three multicast primitives, delivery
    acknowledgements and stability notices (garbage collection of the
    per-view message store), the view-change/flush protocol, the group
    name directory, point-to-point sends (replies), and relaying for
    senders whose site hosts no group member.

    Frames are OCaml values end to end — the simulated network charges
    for their {!size} in bytes, computed from the same layout a real
    implementation would use (application payloads are measured by
    their true binary encoding, [Vsync_msg.Message.size]). *)

open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

(** A retained multicast body, as stored per view for stabilization and
    retransmitted during a flush. *)
type stored =
  | Scb of { uid : uid; rank : int; vt : int list option; ack : bool; body : Message.t }
      (** a CBCAST: sender rank, timestamp ([None] for client-FIFO) and
          the [ack] flag of its [Cb_data]. *)
  | Sab of { uid : uid; prio : prio; ack : bool; body : Message.t }
      (** an ABCAST with its final priority and the [ack] flag of its
          [Ab_data]. *)

val stored_uid : stored -> uid

(** One entry of a wedge acknowledgement's ABCAST report. *)
type ab_report = {
  ab_uid : uid;
  ab_prio : prio;
  ab_committed : bool;
  ab_origin : int;  (** originating site (from the uid). *)
}

type frame =
  (* --- multicast data paths --- *)
  | Cb_data of {
      group : Addr.group_id;
      view_id : int;
      uid : uid;
      rank : int;  (** sender's view rank; [-1] for client-FIFO sends. *)
      vt : int list option;
      ack : bool;
          (** whether delivering it owes the origin a [Deliver_ack].
              Clear on every CBCAST of a packed run but the last: that
              one's acknowledgement and [Stable] cover the whole run. *)
      body : Message.t;
    }
  | Ab_data of {
      group : Addr.group_id;
      view_id : int;
      uid : uid;
      ack : bool;
          (** as [Cb_data]'s.  Clear on every round of an origination
              burst but the last it launches. *)
      body : Message.t;
    }
  | Ab_prio of { group : Addr.group_id; view_id : int; uid : uid; prio : prio }
  | Ab_commit of { group : Addr.group_id; view_id : int; uid : uid; prio : prio }
  | Deliver_ack of { group : Addr.group_id; uid : uid }
      (** destination site → origin site: delivered to all local
          members.  Sent only for a flagged [uid], it settles [uid] and
          the consecutive unflagged uids below it from the same origin:
          the rest of its packed CBCAST run or ABCAST burst.  Earlier
          runs and bursts were settled by their own flagged uid. *)
  | Stable of { group : Addr.group_id; uid : uid }
      (** origin site → destination sites: everyone delivered; GC.
          Sent only for a flagged [uid], it settles the same uids as
          [Deliver_ack]. *)
  (* --- point-to-point (replies, direct sends) --- *)
  | Ptp of { dest : Addr.proc; body : Message.t }
  | Obligation_failed of { session : int; responder : Addr.proc }
      (** the responder died before replying (its site survives). *)
  (* --- membership events routed to the group coordinator --- *)
  | Join_req of {
      group : Addr.group_id;
      joiner : Addr.proc;
      credentials : Message.t;
    }
  | Join_refused of { group : Addr.group_id; joiner : Addr.proc; reason : string }
  | Leave_req of { group : Addr.group_id; who : Addr.proc }
  | Proc_failed of {
      group : Addr.group_id;
      who : Addr.proc;
      certain : bool;
          (** [true] when the reporter witnessed the death directly
              (same-site monitor): certain deaths shrink the
              primary-partition quorum base; suspicions never do. *)
    }
  | Gb_req of {
      group : Addr.group_id;
      view_id : int;
          (** the sender's view when it routed the request; a receiver
              in a later view drops it *)
      uid : uid;
      body : Message.t;
    }
  (* --- the view-change / GBCAST flush protocol --- *)
  | Wedge of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      coord_site : int;
      coord_epoch : int;
          (** the coordinator's transport epoch; receivers record it in
              their wedge and use it to fence commits from a
              crashed-and-restarted coordinator incarnation. *)
    }
  | Wedge_ack of {
      group : Addr.group_id;
      view_id : int;
      attempt : int;
      from_site : int;
      cb_known : uid list;  (** CBCAST uids received this view. *)
      ab_report : ab_report list;
      ab_counter : int;
          (** the site's ABCAST priority counter: a floor for
              coordinator-assigned final priorities. *)
      already_committed : frame option;
          (** the [Commit] this site already applied for this view
              change, when a prior coordinator died after partially
              committing — the new coordinator re-broadcasts it. *)
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
      view_id : int;  (** the view being retired. *)
      attempt : int;
      coord_site : int;  (** who built this commit... *)
      coord_epoch : int;
          (** ...and under which transport epoch: together with
              [attempt] these let receivers fence commits from stale or
              restarted coordinators against the wedge they hold. *)
      stabilize : stored list;  (** bodies some destination lacks. *)
      ab_finalize : (uid * prio) list;  (** finalize these, then deliver. *)
      ab_drop : uid list;  (** uncommitted, origin dead: drop everywhere. *)
      events : View.change list;
      new_view : View.t;
      gname : string;  (** symbolic group name, so member sites can answer directory queries. *)
      gb_bodies : (uid * Message.t) list;  (** user GBCASTs at the sync point. *)
    }
  (* --- group name directory --- *)
  | Dir_update of { name : string; group : Addr.group_id; sites : int list }
  | Dir_query of { name : string; qid : int }
  | Dir_reply of { qid : int; info : (string * Addr.group_id * int list) option }
  (* --- relaying for non-member senders --- *)
  | Relay of {
      group : Addr.group_id;
      mode : mode;
      body : Message.t;
      session : int option;  (** when the caller collects replies. *)
      caller : Addr.proc;
    }
  | Relay_info of { session : int; responders : Addr.proc list }
  | Site_hello of { site : int; epoch : int }
  (* --- partition probing (primary-partition membership) --- *)
  | View_probe of { group : Addr.group_id; view_id : int; from_site : int }
      (** a minority-wedged coordinator asking a suspected site which
          view of [group] it holds. *)
  | View_probe_reply of { group : Addr.group_id; view_id : int }
      (** the probed site's current view id, or [-1] if it holds no
          state for the group.  A reply (or unsolicited verdict from a
          minority coordinator) advertising a view {e newer} than the
          receiver's tells it the primary partition moved on without
          it: the receiver discards its dead copy and rejoins fresh. *)

(** [size f] is the frame's wire size in bytes. *)
val size : frame -> int
