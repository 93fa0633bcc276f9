(** Typed observability events.

    Every layer of the stack reports its decisions through these
    variants instead of formatted strings: the engine (schedule/fire),
    the network and nemesis (drop/dup/delay, fault-plan ops), the
    transport endpoint (packets, retransmissions, RTO, acks, channel
    teardown) and the vsync runtime (origination, per-frame traffic,
    ABCAST votes and commits, delivery, stabilization, view changes,
    GC).

    Fields are primitive ints and short strings: this module sits below
    the message and protocol layers, so identifiers arrive flattened —
    a uid is its [(usite, useq)] pair, a group its integer id. *)

(** Event class, for bitmask filtering on the tracer.  [Engine] events
    are voluminous (every scheduled callback) and off by default.
    [Partition] carries the primary-partition membership machinery:
    minority wedges, heal probes, evictions and recoveries.  [Note]
    carries anomaly reports and site status changes. *)
type cls = Engine | Net | Transport | Proto | Partition | Note

val cls_bit : cls -> int
val cls_name : cls -> string
val cls_of_name : string -> cls option
val all_classes : cls list

type t =
  (* engine *)
  | Sched of { delay : int }
  | Fire
  (* net / nemesis *)
  | Net_drop of { src : int; dst : int; reason : string }
  | Net_dup of { src : int; dst : int }
  | Net_delay of { src : int; dst : int; extra_us : int }
  | Nemesis of { action : string }
  (* transport *)
  | Packet_send of { site : int; dst : int; nframes : int; bytes : int }
  | Packet_recv of { site : int; src : int; nframes : int }
  | Retransmit of { site : int; dst : int; nframes : int }
  | Rto of { site : int; dst : int; timeout_us : int }
  | Ack_send of { site : int; dst : int; upto : int }
  | Channel_fail of { site : int; peer : int; dir : string; reason : string }
  (* vsync protocol *)
  | Originate of { site : int; proto : string; group : int; usite : int; useq : int }
  | Frame_tx of { site : int; dst : int; kind : string; usite : int; useq : int }
  | Frame_rx of { site : int; src : int; kind : string; usite : int; useq : int }
  | Ab_vote of { site : int; voter : int; usite : int; useq : int; prio : int }
  | Ab_commit of { site : int; usite : int; useq : int; prio : int }
  | Deliver of { site : int; group : int; usite : int; useq : int }
  | Stabilize of { site : int; usite : int; useq : int }
  | Wedge of { site : int; group : int; view_id : int }
  | Flush of { site : int; group : int; view_id : int; attempt : int }
  | View_install of { site : int; group : int; view_id : int; nsites : int; mhash : int }
      (** [mhash] fingerprints the installed membership so an external
          checker can compare installs of the same view id across
          sites without carrying the member list. *)
  | Stable_advance of { site : int; origin : int; upto : int }
  | Gc_reclaim of { site : int; n : int }
  (* partition / primary-partition membership *)
  | Partition_wedge of { site : int; group : int; view_id : int; survivors : int; needed : int }
      (** a view-change attempt found its component below quorum:
          [survivors] members retained of a base needing [needed]. *)
  | Partition_probe of { site : int; group : int; view_id : int }
  | Partition_evict of { site : int; group : int; view_id : int; new_view_id : int }
      (** a minority site learned the primary moved to [new_view_id]
          without it; it discards group state and may rejoin fresh. *)
  | Partition_exit of { site : int; group : int; view_id : int }
      (** false alarm: suspicion cleared and the component recovered
          without losing primacy. *)
  (* anomalies and site status *)
  | Error_event of { site : int; what : string; detail : string }
  | Site_status of { site : int; peer : int; status : string }
      (** [site] observed a status change of site [peer]: ["down"]
          (suspected or certain failure), ["up"] (announced restart),
          ["reachable"] (a suspicion cleared), or — with [peer = site]
          — its own ["crash"] and ["restart"]. *)

val cls_of : t -> cls

(** The uid an event is "about" ([(usite, useq)]), when it carries one;
    the key for per-message timeline reconstruction. *)
val uid_of : t -> (int * int) option

(** The site at which the event was observed, when one is meaningful. *)
val site_of : t -> int option

(** Flat field view, shared by the JSONL codec and pretty printer. *)
type field = I of int | S of string

(** [fields ev] is [(tag, named fields)]. *)
val fields : t -> string * (string * field) list

(** Inverse of [fields]: [None] on an unknown tag or missing field. *)
val of_fields : string -> (string * field) list -> t option

(** An event stamped with the virtual time at which it was emitted. *)
type record = { at : int; ev : t }

val pp : Format.formatter -> t -> unit
val pp_record : Format.formatter -> record -> unit
