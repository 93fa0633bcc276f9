(* One group copy: the view change and the data path composed into one
   step function.  Each core's effects are walked in order; a question
   one core asks the other is answered on the spot and its answer's
   effects spliced where it stood, so state changes and effects keep
   the order a depth-first run of the two cores gives them. *)

module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Event = Vsync_obs.Event

type io =
  | Arm of int * Flush.timer
  | Refuse_join of Addr.proc * string
  | Validate of (Addr.proc * Message.t) list
  | Commit of int list * Proto.frame
  | Installing of { gname : string; view : View.t }
  | Installed of { retiring : View.t option; view : View.t; events : View.change list }
  | Teardown
  | Discard of { sites : int list; held : (int * Proto.frame) list }

type 'o effect = ('o, io) Datapath.effect

type 'o input =
  | Accept
  | Hand_off of 'o Datapath.send
  | Multicast of 'o Datapath.send
  | Frame of int * Proto.frame
  | Event of Flush.event
  | Site_down of { site : int; certain : bool }
  | Site_recovered of int
  | Timer of Flush.timer
  | Refused of Addr.proc list

type env = { data : Datapath.env; alive : Addr.proc -> bool }

type 'o t = {
  mutable fl : Flush.state;
  dp : 'o Datapath.state;
  mutable held : (int * Proto.frame) list;  (* (src, frame) for a newer view, newest first *)
}

let create ~me ~epoch ~gname view =
  let fl = Flush.create ~me ~epoch ~gname view in
  { fl; dp = Datapath.create fl; held = [] }

let view c = c.fl.Flush.view
let fate c body = Datapath.fate c.fl c.dp body
let overloaded env c = Datapath.overloaded env.data c.dp
let datapath c = c.dp
let held c = List.length c.held
let view_id c = (view c).View.view_id
let io e = Datapath.Other e
let error site what detail = [ Datapath.Note (Event.Error_event { site; what; detail }) ]

(* A flush trace point, as the event it is in the current view, if a
   listener wants its class. *)
let note env c n =
  let wants = env.data.Datapath.wants in
  let site = c.fl.me and group = Addr.group_to_int (view c).View.group and view_id = view_id c in
  match n with
  | Flush.Flush_started attempt when wants Event.Proto -> [ Datapath.Note (Event.Flush { site; group; view_id; attempt }) ]
  | Flush.Wedged when wants Event.Proto -> [ Datapath.Note (Event.Wedge { site; group; view_id }) ]
  | Flush.Fenced { view_id; attempt; src } when wants Event.Note ->
    error site "fenced-commit" (Printf.sprintf "g%d v%d a%d from s%d" group view_id attempt src)
  | Flush.No_coordinator when wants Event.Note -> error site "no-live-coordinator" (Printf.sprintf "g%d" group)
  | Flush.Body_missing u when wants Event.Note ->
    error site "body-missing" (Printf.sprintf "g%d u%d.%d" group u.Types.usite u.Types.useq)
  | Flush.Minority_entered { survivors; needed } when wants Event.Partition ->
    [ Datapath.Note (Event.Partition_wedge { site; group; view_id; survivors; needed }) ]
  | Flush.Minority_left when wants Event.Partition -> [ Datapath.Note (Event.Partition_exit { site; group; view_id }) ]
  | _ -> [] (* no listener wants it *)

(* A partition trace point, if a listener wants the class. *)
let partition env ev = if env.data.Datapath.wants Event.Partition then [ Datapath.Note ev ] else []

(* This site's answer to a fetch: the bodies of [uids] it holds, after
   a note for each it lacks. *)
let fetch_reply env c ~view_id ~attempt uids =
  let bodies, missing = Datapath.bodies c.dp uids in
  ( List.concat_map (fun u -> note env c (Flush.Body_missing u)) missing,
    Proto.Fetch_reply { group = (view c).View.group; view_id; attempt; from_site = c.fl.me; bodies } )

(* Whether the data path handed the flush a GBCAST: only a send can. *)
let rec asks = function [] -> false | Datapath.Gbcast_start _ :: _ -> true | _ :: rest -> asks rest

let rec data env c input = answered env c (Datapath.step env.data c.fl c.dp input)
and answered env c effects = if asks effects then List.concat_map (answer env c) effects else effects

and answer env c = function
  | Datapath.Gbcast_start (uid, body) -> change env c (Flush.Gbcast (uid, body))
  | e -> [ e ]

and change env c input =
  let fl, effects = Flush.step c.fl input in
  if fl != c.fl then c.fl <- fl;
  List.concat_map (flush_effect env c) effects

and flush_effect env c = function
  | Flush.Send (dst, frame) -> [ Datapath.Send (dst, frame) ]
  | Flush.Ack_wedge { dst; attempt } -> [ Datapath.Send (dst, Datapath.wedge_ack c.fl c.dp ~attempt) ]
  | Flush.Arm (delay, timer) -> [ io (Arm (delay, timer)) ]
  | Flush.Note n -> note env c n
  | Flush.Refuse_join (p, reason) -> [ io (Refuse_join (p, reason)) ]
  | Flush.Check_alive { procs; rest } ->
    change env c (Flush.Alive_here { alive = List.filter env.alive procs; rest })
  | Flush.Validate joins -> [ io (Validate joins) ]
  | Flush.Fetch_local { attempt; uids } ->
    let notes, reply = fetch_reply env c ~view_id:(view_id c) ~attempt uids in
    notes @ change env c (Flush.Frame (c.fl.me, reply))
  | Flush.Commit (dests, frame) -> [ io (Commit (dests, frame)) ]
  | Flush.Retire frame ->
    let retired = data env c (Datapath.Retire frame) in
    retired @ change env c (Flush.Retired frame)
  | Flush.Install { retiring; commit } -> install env c ~retiring commit
  | Flush.Probe_sites sites ->
    let group = (view c).View.group and view_id = view_id c and site = c.fl.me in
    partition env (Event.Partition_probe { site; group = Addr.group_to_int group; view_id })
    @ [ Datapath.Mcast (sites, Proto.View_probe { group; view_id; from_site = site }) ]
  | Flush.Teardown { new_view_id; verdict; notify } ->
    (* The primary partition installed [new_view_id] without us (or
       probing ran dry, [-1]): the copy goes, unstable minority
       deliveries included, so local members can rejoin fresh and pull
       current state through the state-transfer toolkit.  The sites in
       [notify] are told the view id [verdict], so they discard their
       copies too. *)
    let group = (view c).View.group and view_id = view_id c and site = c.fl.me in
    partition env (Event.Partition_evict { site; group = Addr.group_to_int group; view_id; new_view_id })
    @ Datapath.Mcast (notify, Proto.View_probe_reply { group; view_id = verdict })
    :: io Teardown :: discard env c

(* The second half of an install: the flush already holds the new
   view.  [Unblock] sends the deferred sends back through
   [Datapath.fate], which drops those of a member this very commit
   removed as failed. *)
and install env c ~retiring commit =
  match commit with
  | Proto.Commit { new_view; events; gname; _ } ->
    let installing = io (Installing { gname; view = new_view }) in
    let delivered = data env c (Datapath.Install commit) in
    let installed = io (Installed { retiring; view = new_view; events }) in
    let rerun = data env c Datapath.Unblock in
    let frames = List.rev c.held in
    c.held <- [];
    let replayed = List.concat_map (fun (src, frame) -> on_frame env c ~src frame) frames in
    (* An empty view dissolves the group.  A site left without any
       local member is out of it, but first hands the events it queued
       to the new view's coordinator. *)
    let last =
      if View.n_members new_view = 0 then discard env c
      else
        let routed = change env c (Flush.Installed new_view) in
        if View.hosts new_view c.fl.me then routed else routed @ discard env c
    in
    (installing :: delivered) @ (installed :: rerun) @ replayed @ last
  | _ -> []

and discard env c =
  let released = data env c Datapath.Discard in
  let held = c.held in
  c.held <- [];
  released @ [ io (Discard { sites = View.sites (view c); held }) ]

and on_frame env c ~src frame =
  match frame with
  | Proto.Cb_data { view_id = vid; _ } | Proto.Ab_data { view_id = vid; _ }
  | Proto.Ab_prio { view_id = vid; _ } | Proto.Ab_commit { view_id = vid; _ } ->
    let v = view c in
    if vid = v.View.view_id then
      (* Wedged: post-ack data is dropped; the flush stabilizes.  A
         site hosting no member of this view sends under another
         lineage that reused the id after a fork (DESIGN.md §4.7): its
         timestamps mean nothing against this view's clocks. *)
      if (not (Flush.wedged c.fl)) && View.hosts v src then Datapath.frame env.data c.fl c.dp ~src frame
      else []
    else if vid > v.View.view_id then (c.held <- (src, frame) :: c.held; [])
    else if not (View.hosts v src) then
      (* Stale data from a site outside the view: a stale coordinator
         that committed a divergent (lower-id) view before the primary
         moved past it, still sending under the dead lineage. *)
      [ Datapath.Send (src, Proto.View_probe_reply { group = v.View.group; view_id = v.View.view_id }) ]
    else [] (* stale view from a member: the normal retransmit tail *)
  | Proto.Deliver_ack _ | Proto.Stable _ -> Datapath.frame env.data c.fl c.dp ~src frame
  | Proto.Fetch { view_id; attempt; uids; _ } ->
    let notes, reply = fetch_reply env c ~view_id ~attempt uids in
    notes @ [ Datapath.Send (src, reply) ]
  | _ -> change env c (Flush.Frame (src, frame))

let step env c = function
  | Accept -> data env c Datapath.Accept
  | Hand_off s -> answered env c (Datapath.hand_off env.data c.fl c.dp s)
  | Multicast s -> data env c (Datapath.Multicast s)
  | Frame (src, frame) -> on_frame env c ~src frame
  | Event ev -> change env c (Flush.Event ev)
  | Site_down { site; certain } -> change env c (Flush.Site_down { site; certain })
  | Site_recovered site -> change env c (Flush.Site_recovered site)
  | Timer timer -> change env c (Flush.Timer timer)
  | Refused refused -> change env c (Flush.Refused refused)

let adopt env ~me ~epoch ~held commit =
  Flush.adopt ~me ~epoch commit
  |> Option.map (fun (fl, effects) ->
         let c = { fl; dp = Datapath.create fl; held } in
         (c, List.concat_map (flush_effect env c) effects))
