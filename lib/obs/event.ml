(* Typed observability events.

   One variant per observable decision, spanning every layer of the
   stack: the discrete-event engine, the network (incl. nemesis fault
   injections), the transport endpoint, and the vsync protocol runtime.
   Field types are deliberately primitive (ints and short strings): this
   module sits below [lib/msg] and [lib/vsync], so protocol identifiers
   arrive already flattened — a uid is its [(usite, useq)] pair, a group
   its integer id, an address its site number. *)

type cls = Engine | Net | Transport | Proto | Partition | Note

let cls_bit = function
  | Engine -> 1
  | Net -> 2
  | Transport -> 4
  | Proto -> 8
  | Note -> 16
  | Partition -> 32

let cls_name = function
  | Engine -> "engine"
  | Net -> "net"
  | Transport -> "transport"
  | Proto -> "proto"
  | Partition -> "partition"
  | Note -> "note"

let cls_of_name = function
  | "engine" -> Some Engine
  | "net" -> Some Net
  | "transport" -> Some Transport
  | "proto" -> Some Proto
  | "partition" -> Some Partition
  | "note" -> Some Note
  | _ -> None

let all_classes = [ Engine; Net; Transport; Proto; Partition; Note ]

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
  | Stable_advance of { site : int; origin : int; upto : int }
  | Gc_reclaim of { site : int; n : int }
  (* partition / primary-partition membership *)
  | Partition_wedge of { site : int; group : int; view_id : int; survivors : int; needed : int }
  | Partition_probe of { site : int; group : int; view_id : int }
  | Partition_evict of { site : int; group : int; view_id : int; new_view_id : int }
  | Partition_exit of { site : int; group : int; view_id : int }
  (* anomalies and site status *)
  | Error_event of { site : int; what : string; detail : string }
  | Site_status of { site : int; peer : int; status : string }

let cls_of = function
  | Sched _ | Fire -> Engine
  | Net_drop _ | Net_dup _ | Net_delay _ | Nemesis _ -> Net
  | Packet_send _ | Packet_recv _ | Retransmit _ | Rto _ | Ack_send _ | Channel_fail _ ->
    Transport
  | Originate _ | Frame_tx _ | Frame_rx _ | Ab_vote _ | Ab_commit _ | Deliver _
  | Stabilize _ | Wedge _ | Flush _ | View_install _ | Stable_advance _ | Gc_reclaim _ ->
    Proto
  | Partition_wedge _ | Partition_probe _ | Partition_evict _ | Partition_exit _ -> Partition
  | Error_event _ | Site_status _ -> Note

(* The uid an event is "about", for per-message timeline reconstruction. *)
let uid_of = function
  | Originate { usite; useq; _ }
  | Frame_tx { usite; useq; _ }
  | Frame_rx { usite; useq; _ }
  | Ab_vote { usite; useq; _ }
  | Ab_commit { usite; useq; _ }
  | Deliver { usite; useq; _ }
  | Stabilize { usite; useq; _ } ->
    Some (usite, useq)
  | _ -> None

(* The site at which the event was observed, when one is meaningful. *)
let site_of = function
  | Sched _ | Fire | Nemesis _ -> None
  | Net_drop { src; _ } | Net_dup { src; _ } | Net_delay { src; _ } -> Some src
  | Packet_send { site; _ }
  | Packet_recv { site; _ }
  | Retransmit { site; _ }
  | Rto { site; _ }
  | Ack_send { site; _ }
  | Channel_fail { site; _ }
  | Originate { site; _ }
  | Frame_tx { site; _ }
  | Frame_rx { site; _ }
  | Ab_vote { site; _ }
  | Ab_commit { site; _ }
  | Deliver { site; _ }
  | Stabilize { site; _ }
  | Wedge { site; _ }
  | Flush { site; _ }
  | View_install { site; _ }
  | Stable_advance { site; _ }
  | Gc_reclaim { site; _ }
  | Partition_wedge { site; _ }
  | Partition_probe { site; _ }
  | Partition_evict { site; _ }
  | Partition_exit { site; _ }
  | Error_event { site; _ }
  | Site_status { site; _ } ->
    Some site

(* --- flat field view, shared by the JSONL codec and pretty printer --- *)

type field = I of int | S of string

let fields = function
  | Sched { delay } -> ("sched", [ ("delay", I delay) ])
  | Fire -> ("fire", [])
  | Net_drop { src; dst; reason } ->
    ("net_drop", [ ("src", I src); ("dst", I dst); ("reason", S reason) ])
  | Net_dup { src; dst } -> ("net_dup", [ ("src", I src); ("dst", I dst) ])
  | Net_delay { src; dst; extra_us } ->
    ("net_delay", [ ("src", I src); ("dst", I dst); ("extra_us", I extra_us) ])
  | Nemesis { action } -> ("nemesis", [ ("action", S action) ])
  | Packet_send { site; dst; nframes; bytes } ->
    ("packet_send", [ ("site", I site); ("dst", I dst); ("nframes", I nframes); ("bytes", I bytes) ])
  | Packet_recv { site; src; nframes } ->
    ("packet_recv", [ ("site", I site); ("src", I src); ("nframes", I nframes) ])
  | Retransmit { site; dst; nframes } ->
    ("retransmit", [ ("site", I site); ("dst", I dst); ("nframes", I nframes) ])
  | Rto { site; dst; timeout_us } ->
    ("rto", [ ("site", I site); ("dst", I dst); ("timeout_us", I timeout_us) ])
  | Ack_send { site; dst; upto } ->
    ("ack_send", [ ("site", I site); ("dst", I dst); ("upto", I upto) ])
  | Channel_fail { site; peer; dir; reason } ->
    ("channel_fail", [ ("site", I site); ("peer", I peer); ("dir", S dir); ("reason", S reason) ])
  | Originate { site; proto; group; usite; useq } ->
    ( "originate",
      [ ("site", I site); ("proto", S proto); ("group", I group); ("usite", I usite); ("useq", I useq) ] )
  | Frame_tx { site; dst; kind; usite; useq } ->
    ( "frame_tx",
      [ ("site", I site); ("dst", I dst); ("kind", S kind); ("usite", I usite); ("useq", I useq) ] )
  | Frame_rx { site; src; kind; usite; useq } ->
    ( "frame_rx",
      [ ("site", I site); ("src", I src); ("kind", S kind); ("usite", I usite); ("useq", I useq) ] )
  | Ab_vote { site; voter; usite; useq; prio } ->
    ( "ab_vote",
      [ ("site", I site); ("voter", I voter); ("usite", I usite); ("useq", I useq); ("prio", I prio) ] )
  | Ab_commit { site; usite; useq; prio } ->
    ("ab_commit", [ ("site", I site); ("usite", I usite); ("useq", I useq); ("prio", I prio) ])
  | Deliver { site; group; usite; useq } ->
    ("deliver", [ ("site", I site); ("group", I group); ("usite", I usite); ("useq", I useq) ])
  | Stabilize { site; usite; useq } ->
    ("stabilize", [ ("site", I site); ("usite", I usite); ("useq", I useq) ])
  | Wedge { site; group; view_id } ->
    ("wedge", [ ("site", I site); ("group", I group); ("view_id", I view_id) ])
  | Flush { site; group; view_id; attempt } ->
    ("flush", [ ("site", I site); ("group", I group); ("view_id", I view_id); ("attempt", I attempt) ])
  | View_install { site; group; view_id; nsites; mhash } ->
    ( "view_install",
      [
        ("site", I site); ("group", I group); ("view_id", I view_id); ("nsites", I nsites);
        ("mhash", I mhash);
      ] )
  | Partition_wedge { site; group; view_id; survivors; needed } ->
    ( "partition_wedge",
      [
        ("site", I site); ("group", I group); ("view_id", I view_id);
        ("survivors", I survivors); ("needed", I needed);
      ] )
  | Partition_probe { site; group; view_id } ->
    ("partition_probe", [ ("site", I site); ("group", I group); ("view_id", I view_id) ])
  | Partition_evict { site; group; view_id; new_view_id } ->
    ( "partition_evict",
      [
        ("site", I site); ("group", I group); ("view_id", I view_id);
        ("new_view_id", I new_view_id);
      ] )
  | Partition_exit { site; group; view_id } ->
    ("partition_exit", [ ("site", I site); ("group", I group); ("view_id", I view_id) ])
  | Stable_advance { site; origin; upto } ->
    ("stable_advance", [ ("site", I site); ("origin", I origin); ("upto", I upto) ])
  | Gc_reclaim { site; n } -> ("gc_reclaim", [ ("site", I site); ("n", I n) ])
  | Error_event { site; what; detail } ->
    ("error", [ ("site", I site); ("what", S what); ("detail", S detail) ])
  | Site_status { site; peer; status } ->
    ("site_status", [ ("site", I site); ("peer", I peer); ("status", S status) ])

(* Inverse of [fields]; total over well-formed input, [None] otherwise. *)
let of_fields tag fs =
  let i k = match List.assoc_opt k fs with Some (I v) -> Some v | _ -> None in
  let s k = match List.assoc_opt k fs with Some (S v) -> Some v | _ -> None in
  let ( let* ) = Option.bind in
  match tag with
  | "sched" ->
    let* delay = i "delay" in
    Some (Sched { delay })
  | "fire" -> Some Fire
  | "net_drop" ->
    let* src = i "src" in
    let* dst = i "dst" in
    let* reason = s "reason" in
    Some (Net_drop { src; dst; reason })
  | "net_dup" ->
    let* src = i "src" in
    let* dst = i "dst" in
    Some (Net_dup { src; dst })
  | "net_delay" ->
    let* src = i "src" in
    let* dst = i "dst" in
    let* extra_us = i "extra_us" in
    Some (Net_delay { src; dst; extra_us })
  | "nemesis" ->
    let* action = s "action" in
    Some (Nemesis { action })
  | "packet_send" ->
    let* site = i "site" in
    let* dst = i "dst" in
    let* nframes = i "nframes" in
    let* bytes = i "bytes" in
    Some (Packet_send { site; dst; nframes; bytes })
  | "packet_recv" ->
    let* site = i "site" in
    let* src = i "src" in
    let* nframes = i "nframes" in
    Some (Packet_recv { site; src; nframes })
  | "retransmit" ->
    let* site = i "site" in
    let* dst = i "dst" in
    let* nframes = i "nframes" in
    Some (Retransmit { site; dst; nframes })
  | "rto" ->
    let* site = i "site" in
    let* dst = i "dst" in
    let* timeout_us = i "timeout_us" in
    Some (Rto { site; dst; timeout_us })
  | "ack_send" ->
    let* site = i "site" in
    let* dst = i "dst" in
    let* upto = i "upto" in
    Some (Ack_send { site; dst; upto })
  | "channel_fail" ->
    let* site = i "site" in
    let* peer = i "peer" in
    let* dir = s "dir" in
    let* reason = s "reason" in
    Some (Channel_fail { site; peer; dir; reason })
  | "originate" ->
    let* site = i "site" in
    let* proto = s "proto" in
    let* group = i "group" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    Some (Originate { site; proto; group; usite; useq })
  | "frame_tx" ->
    let* site = i "site" in
    let* dst = i "dst" in
    let* kind = s "kind" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    Some (Frame_tx { site; dst; kind; usite; useq })
  | "frame_rx" ->
    let* site = i "site" in
    let* src = i "src" in
    let* kind = s "kind" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    Some (Frame_rx { site; src; kind; usite; useq })
  | "ab_vote" ->
    let* site = i "site" in
    let* voter = i "voter" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    let* prio = i "prio" in
    Some (Ab_vote { site; voter; usite; useq; prio })
  | "ab_commit" ->
    let* site = i "site" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    let* prio = i "prio" in
    Some (Ab_commit { site; usite; useq; prio })
  | "deliver" ->
    let* site = i "site" in
    let* group = i "group" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    Some (Deliver { site; group; usite; useq })
  | "stabilize" ->
    let* site = i "site" in
    let* usite = i "usite" in
    let* useq = i "useq" in
    Some (Stabilize { site; usite; useq })
  | "wedge" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    Some (Wedge { site; group; view_id })
  | "flush" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    let* attempt = i "attempt" in
    Some (Flush { site; group; view_id; attempt })
  | "view_install" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    let* nsites = i "nsites" in
    let* mhash = i "mhash" in
    Some (View_install { site; group; view_id; nsites; mhash })
  | "partition_wedge" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    let* survivors = i "survivors" in
    let* needed = i "needed" in
    Some (Partition_wedge { site; group; view_id; survivors; needed })
  | "partition_probe" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    Some (Partition_probe { site; group; view_id })
  | "partition_evict" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    let* new_view_id = i "new_view_id" in
    Some (Partition_evict { site; group; view_id; new_view_id })
  | "partition_exit" ->
    let* site = i "site" in
    let* group = i "group" in
    let* view_id = i "view_id" in
    Some (Partition_exit { site; group; view_id })
  | "stable_advance" ->
    let* site = i "site" in
    let* origin = i "origin" in
    let* upto = i "upto" in
    Some (Stable_advance { site; origin; upto })
  | "gc_reclaim" ->
    let* site = i "site" in
    let* n = i "n" in
    Some (Gc_reclaim { site; n })
  | "error" ->
    let* site = i "site" in
    let* what = s "what" in
    let* detail = s "detail" in
    Some (Error_event { site; what; detail })
  | "site_status" ->
    let* site = i "site" in
    let* peer = i "peer" in
    let* status = s "status" in
    Some (Site_status { site; peer; status })
  | _ -> None

(* --- timestamped record ------------------------------------------- *)

type record = { at : int; ev : t }

let pp ppf ev =
  let tag, fs = fields ev in
  Format.fprintf ppf "%s" tag;
  List.iter
    (fun (k, v) ->
      match v with
      | I n -> Format.fprintf ppf " %s=%d" k n
      | S str -> Format.fprintf ppf " %s=%s" k str)
    fs

let pp_record ppf r = Format.fprintf ppf "[%8d us] %a" r.at pp r.ev
