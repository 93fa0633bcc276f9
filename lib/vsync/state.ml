(* The per-site protocols process's state: the record types every protocol
   module shares, and the basic helpers over them (indexes, directory, frame
   sending, typed tracing).  Nothing here runs a protocol step. *)

open Types
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Backend = Vsync_backend.Backend
module Trace = Vsync_sim.Trace
module Sched = Vsync_tasks.Sched
module Ivar = Vsync_tasks.Ivar
module Condition = Vsync_tasks.Condition
module Endpoint = Vsync_transport.Endpoint
module Obs_tracer = Vsync_obs.Tracer
module Obs_event = Vsync_obs.Event
module Metrics = Vsync_obs.Metrics
module Int_set = Set.Make (Int)

type config = {
  cpu_send_us : int;
  cpu_recv_us : int;
  cpu_us_per_kb : int;
  cpu_us_per_extra_packet : int;
  ab_window : int;
  clock_offset_us : int;
}

let default_config =
  {
    cpu_send_us = 6_000;
    cpu_recv_us = 5_000;
    cpu_us_per_kb = 700;
    cpu_us_per_extra_packet = 8_000;
    ab_window = 16;
    clock_offset_us = 0;
  }

(* System fields riding on application messages (in addition to the
   $sender/$session/$entry fields managed by Vsync_msg.Message). *)
let f_want = "$want"
let f_mode = "$mode"
let f_is_reply = "$is_reply"
let f_null = "$null"
let f_pg_kill = "$pg_kill"

let mode_to_int = function Cbcast -> 0 | Abcast -> 1 | Gbcast -> 2

let mode_of_int = function 0 -> Some Cbcast | 1 -> Some Abcast | 2 -> Some Gbcast | _ -> None

let want_to_int = function No_reply -> 0 | Wait_all -> -1 | Wait_n n -> n
let want_of_int = function 0 -> No_reply | -1 -> Wait_all | n -> Wait_n n

type outcome =
  | Replies of (Addr.proc * Message.t) list
  | All_failed

type proc = {
  puid : int; (* globally unique across all runtimes and simulations *)
  addr : Addr.proc;
  pname : string;
  rt : t;
  sched : Sched.t;
  entries : (Entry.t, Message.t -> unit) Hashtbl.t;
  mutable filters : (Message.t -> bool) list;
  mutable palive : bool;
  mutable outstanding : Uid_set.t;
  mutable pending_inits : int;
      (* multicasts accepted by bcast but not yet through the CPU queue:
         flush must wait for these too *)
  flushers : Condition.t;
}

and group = {
  gid : Addr.group_id;
  copy : proc Copy.t;
      (* the view, the flush, the data path and the held frames: changed
         only by [Copy.step], which [Interp.step] runs *)
  mutable g_monitors : (proc * (View.t -> View.change list -> unit)) list;
  mutable join_validator : (proc * (Addr.proc -> Message.t -> bool)) option;
  mutable leavers : (int * unit Ivar.t) list;
      (* local processes blocked in [pg_leave]: proc idx, waiter *)
}

(* Local [pg_join]s of one group in flight, and the group's frames that
   arrived before this site had a copy (new-view data racing its
   Commit).  The record goes with its last joiner. *)
and pending_join = {
  mutable joiners : (int * (unit, string) result Ivar.t) list; (* proc idx, waiter *)
  mutable early : (int * Proto.frame) list; (* (src, frame), newest first *)
}

and session_state = {
  sess_id : int;
  swant : want;
  mutable replies : (Addr.proc * Message.t) list; (* newest first *)
  mutable nulls : Addr.proc list;
  mutable sfailed : Addr.proc list; (* known to have failed, responders or not *)
  mutable responders : Addr.proc list; (* known so far *)
  mutable relays : int list; (* one site per relayed group yet to name its members *)
  done_ivar : outcome Ivar.t;
  mutable mon_sites : int list;
}

and t = {
  fab : fabric;
  my_site : int;
  cfg : config;
  bk : Backend.t;
  tracer : Trace.t;
  ep : Proto.frame Endpoint.t;
  env : Copy.env;
      (* the ABCAST window, the site's uid counter (group ids share it)
         and which local processes live *)
  metrics : Metrics.t;
  mutable running : bool;
  mutable next_proc_idx : int;
  mutable next_session : int;
  mutable next_qid : int;
  procs : (int, proc) Hashtbl.t;
  groups : (int, group) Hashtbl.t;
  names : (string, Addr.group_id) Hashtbl.t; (* registered name -> group *)
  dir : (int, string * int list) Hashtbl.t;
      (* gid -> its name and the sites offered as contacts for it, never
         empty: see [dir_set] *)
  joins : (int, pending_join) Hashtbl.t; (* gid -> local joins in flight *)
  sessions : (int, session_state) Hashtbl.t;
  obligations : (int, (int * Addr.proc) list) Hashtbl.t; (* responder idx -> obligations *)
  dir_queries : (int, int ref * (Addr.group_id * int list) option Ivar.t) Hashtbl.t;
  mutable site_watchers : ([ `Down of int | `Up of int ] -> unit) list;
  admission : Condition.t;
      (* originators blocked in [bcast_wait] sleep here; woken whenever
         an accepted multicast leaves the CPU queue, the ABCAST pipeline
         dispatches queued rounds, or a group copy goes away *)
  mutable cpu_free : int; (* backend µs *)
  mutable cpu_busy : int;
  send_jobs : int Queue.t;
      (* send-path CPU jobs not yet finished, oldest first: the group of
         a CBCAST, [-1] for any other send (kept only while packing) *)
  mutable packed : (group * Message.t * (ack:bool -> unit)) list;
      (* CBCAST originations held for their successor, newest first:
         the copy, the body, and the hand-off that originates it *)
  mutable packed_bytes : int;
  cb_held : Metrics.counter;
  stability_frames : Metrics.counter;
      (* [Deliver_ack] and [Stable] frames sent, one per destination *)
}

and fabric = {
  fbk : Backend.t;
  ep_fabric : Proto.frame Endpoint.fabric;
}

let make_fabric bk = { fbk = bk; ep_fabric = Endpoint.fabric bk }
let fabric_backend f = f.fbk

let site t = t.my_site
let backend t = t.bk
let alive t = t.running
let trace t = t.tracer
let metrics t = t.metrics
let cpu_busy_us t = t.cpu_busy

(* Bump the site's registry counter [name]: the [prim.*] tallies of
   Table I. *)
let count t name = Metrics.incr (Metrics.counter t.metrics name)

(* Emit one typed event of class [cls].  [mk] is forced only when some
   listener wants the class.  Without flambda the thunk itself is a
   heap closure, so the per-message data path (originate, deliver,
   vote, stabilize) goes through the guard of its interpreter's one
   [Note] arm instead; this helper serves the cold paths (view changes,
   errors, site status) where a closure per call is irrelevant. *)
let trace_event t cls mk =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr cls then Obs_tracer.emit tr (mk ())

(* The site's local wall clock: true simulation time plus this site's
   (unknown to it) offset.  The real-time tool's clock synchronization
   estimates and cancels the offsets. *)
let local_time_us t = Backend.now t.bk + t.cfg.clock_offset_us

let gi = Addr.group_to_int

(* --- pending joins --- *)

let join_add t gid ~idx iv =
  match Hashtbl.find_opt t.joins (gi gid) with
  | Some j -> j.joiners <- (idx, iv) :: j.joiners
  | None -> Hashtbl.replace t.joins (gi gid) { joiners = [ (idx, iv) ]; early = [] }

(* Answer local joiner [idx]'s [pg_join] with [r]. *)
let join_resolve t gid_int ~idx r =
  match Hashtbl.find_opt t.joins gid_int with
  | Some j -> (
    match List.assoc_opt idx j.joiners with
    | Some iv ->
      j.joiners <- List.remove_assoc idx j.joiners;
      if j.joiners = [] then Hashtbl.remove t.joins gid_int;
      Ivar.fill iv r
    | None -> ())
  | None -> ()

(* Refuse every local joiner of [gid_int], oldest first. *)
let join_fail_all t gid_int reason =
  match Hashtbl.find_opt t.joins gid_int with
  | Some j ->
    Hashtbl.remove t.joins gid_int;
    List.iter (fun (_, iv) -> Ivar.fill iv (Error reason)) (List.rev j.joiners)
  | None -> ()

(* --- name directory ---

   [dir] holds, per group, its registered name and the sites this site
   offers as contacts; [names] maps a name to the group holding it.  An
   entry whose site list becomes empty is deleted, with its name: a
   name no site answers for is free again. *)

let dir_set t ~name gid sites =
  let gid_int = gi gid in
  match sites with
  | [] -> (
    match Hashtbl.find_opt t.dir gid_int with
    | Some (name, _) ->
      Hashtbl.remove t.dir gid_int;
      (match Hashtbl.find_opt t.names name with
      | Some g when gi g = gid_int -> Hashtbl.remove t.names name
      | Some _ | None -> ())
    | None -> ())
  | _ :: _ ->
    Hashtbl.replace t.dir gid_int (name, sites);
    Hashtbl.replace t.names name gid

(* The group registered as [name] and its contact sites. *)
let dir_find t name =
  match Hashtbl.find_opt t.names name with
  | Some gid -> (
    match Hashtbl.find_opt t.dir (gi gid) with
    | Some (_, sites) -> Some (gid, sites)
    | None -> None)
  | None -> None

(* [drop_hint t ~gid_int ~site] stops offering [site] as a contact for
   group [gid_int]. *)
let drop_hint t ~gid_int ~site =
  match Hashtbl.find_opt t.dir gid_int with
  | Some (name, sites) when List.mem site sites ->
    dir_set t ~name (Addr.group_of_int gid_int) (List.filter (( <> ) site) sites)
  | Some _ | None -> ()

(* [s] is down: purge it from every contact list. *)
let forget_site t s =
  List.iter
    (fun gid_int -> drop_hint t ~gid_int ~site:s)
    (Hashtbl.fold (fun gid_int _ acc -> gid_int :: acc) t.dir [])

(* Frames that are "about" one multicast — the per-uid timeline raw
   material.  Control frames without a uid (directory, membership,
   flush plumbing) stay visible through the transport's
   [Packet_send]/[Packet_recv] events. *)
let frame_uid_kind = function
  | Proto.Cb_data { uid; _ } -> Some ("cb_data", uid)
  | Proto.Ab_data { uid; _ } -> Some ("ab_data", uid)
  | Proto.Ab_prio { uid; _ } -> Some ("ab_prio", uid)
  | Proto.Ab_commit { uid; _ } -> Some ("ab_commit", uid)
  | Proto.Deliver_ack { uid; _ } -> Some ("deliver_ack", uid)
  | Proto.Stable { uid; _ } -> Some ("stable", uid)
  | _ -> None

(* Frame_tx/Frame_rx, guarded before [frame_uid_kind] so the disabled
   path allocates nothing. *)
let emit_frame_event t ~peer ~rx frame =
  let tr = Trace.obs t.tracer in
  if Obs_tracer.wants tr Obs_event.Proto then
    match frame_uid_kind frame with
    | Some (kind, u) ->
      Obs_tracer.emit tr
        (if rx then
           Obs_event.Frame_rx
             { site = t.my_site; src = peer; kind; usite = u.usite; useq = u.useq }
         else
           Obs_event.Frame_tx
             { site = t.my_site; dst = peer; kind; usite = u.usite; useq = u.useq })
    | None -> ()

let send_frame t ~dst frame =
  if t.running then begin
    emit_frame_event t ~peer:dst ~rx:false frame;
    Endpoint.send t.ep ~dst frame
  end

(* The same frame to each of [dsts], in order. *)
let rec send_frames t frame = function
  | [] -> ()
  | dst :: rest ->
    send_frame t ~dst frame;
    send_frames t frame rest

let fresh_session t =
  let s = t.next_session in
  t.next_session <- s + 1;
  s

(* --- processes and groups: lookups --- *)

let proc_addr p = p.addr
let proc_uid p = p.puid
let proc_name p = p.pname
let proc_alive p = p.palive && p.rt.running
let runtime_of p = p.rt

(* Oldest filter first — side-effectful filters (state transfer
   buffering) rely on installation order — with short-circuit on the
   first rejection, like the [List.for_all] over the append-ordered
   list this replaces. *)
let rec filters_pass rev_filters body =
  match rev_filters with
  | [] -> true
  | f :: older -> filters_pass older body && f body

let find_in procs (a : Addr.proc) =
  match Hashtbl.find_opt procs a.Addr.idx with
  | Some p when Addr.equal_proc p.addr a && p.palive -> Some p
  | Some _ | None -> None

let find_proc t a = find_in t.procs a

(* The installed view of [g] at this site. *)
let view g = Copy.view g.copy

let group_of t gid = Hashtbl.find_opt t.groups (gi gid)

let make_group ~gid copy = { gid; copy; g_monitors = []; join_validator = None; leavers = [] }

(* --- flush waiters --- *)

let maybe_wake_flushers p =
  if p.pending_inits = 0 && Uid_set.is_empty p.outstanding then Condition.broadcast p.flushers
