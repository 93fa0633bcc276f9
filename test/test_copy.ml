(* One group copy driven directly, with no simulator: each case feeds
   [Copy.step] a few inputs at site 0 of a 3-site view and checks the
   effects it asks for, the way test_flush and test_datapath drive the
   two cores it composes. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let gid = Addr.group_of_int 7
let proc site = Addr.proc ~site ~idx:0 ~incarnation:0

(* A view of one member at each of sites [0 .. n-1], oldest first. *)
let view n =
  View.apply (View.initial gid (proc 0)) (List.init (n - 1) (fun i -> View.Member_joined (proc (i + 1))))

let env =
  let next = ref 0 in
  let fresh () =
    let u = { Types.usite = 0; useq = !next } in
    incr next;
    u
  in
  { Copy.data = { Datapath.window = 16; fresh; wants = (fun _ -> false) }; alive = (fun _ -> true) }

let copy ?(view_id = 1) () : string Copy.t =
  Copy.create ~me:0 ~epoch:0 ~gname:"g" { (view 3) with View.view_id }

let cb_data ~view_id ~src useq =
  Proto.Cb_data
    { group = gid; view_id; uid = { Types.usite = src; useq }; rank = src; vt = None; ack = true;
      body = Message.create () }

let commit ~new_view =
  Proto.Commit
    { group = gid; view_id = 1; attempt = 1; coord_site = 0; coord_epoch = 0; stabilize = [];
      ab_finalize = []; ab_drop = []; events = []; new_view; gname = "g"; gb_bodies = [] }

(* The position of the first effect [p] holds for. *)
let index p effects =
  let rec go i = function [] -> -1 | e :: rest -> if p e then i else go (i + 1) rest in
  go 0 effects

(* A wedge from site 1 is acknowledged with what the data path holds:
   the CBCAST this site sent is reported known. *)
let test_wedge_ack () =
  let c = copy () in
  let send = { Datapath.owner = None; mode = Types.Cbcast; body = Message.create (); ack = true } in
  let uid =
    match
      List.find_map
        (function Datapath.Mcast (_, Proto.Cb_data { uid; _ }) -> Some uid | _ -> None)
        (Copy.step env c (Copy.Multicast send))
    with
    | Some u -> u
    | None -> Alcotest.fail "no CBCAST sent"
  in
  let wedge = Proto.Wedge { group = gid; view_id = 1; attempt = 1; coord_site = 1; coord_epoch = 0 } in
  let ack = function
    | Datapath.Send (1, Proto.Wedge_ack { attempt; from_site; cb_known; _ }) -> Some (attempt, from_site, cb_known)
    | _ -> None
  in
  match List.filter_map ack (Copy.step env c (Copy.Frame (1, wedge))) with
  | [ (attempt, from_site, cb_known) ] ->
    Alcotest.(check (pair int int)) "attempt 1, from site 0" (1, 0) (attempt, from_site);
    Alcotest.(check bool) "reports the stored CBCAST" true (cb_known = [ uid ])
  | _ -> Alcotest.fail "expected one wedge ack to site 1"

(* A data frame for the next view is held; the commit that installs
   that view replays it, and its delivery comes after the install's I/O. *)
let test_held_frame () =
  let c = copy () in
  Alcotest.(check int) "nothing to do yet" 0
    (List.length (Copy.step env c (Copy.Frame (1, cb_data ~view_id:2 ~src:1 0))));
  Alcotest.(check int) "held" 1 (Copy.held c);
  let effects = Copy.step env c (Copy.Frame (0, commit ~new_view:{ (view 3) with View.view_id = 2 })) in
  Alcotest.(check int) "view 2 installed" 2 (Copy.view c).View.view_id;
  Alcotest.(check int) "replayed" 0 (Copy.held c);
  let installing = index (function Datapath.Other (Copy.Installing _) -> true | _ -> false) effects in
  let installed = index (function Datapath.Other (Copy.Installed _) -> true | _ -> false) effects in
  let delivered = index (function Datapath.Deliver _ -> true | _ -> false) effects in
  Alcotest.(check bool) "install I/O first" true (installing >= 0 && installing < installed);
  Alcotest.(check bool) "then the held frame's delivery" true (delivered > installed)

(* Stale data from a site outside the view is answered with the current
   view id. *)
let test_stale_frame () =
  let c = copy ~view_id:5 () in
  match Copy.step env c (Copy.Frame (7, cb_data ~view_id:4 ~src:7 0)) with
  | [ Datapath.Send (7, Proto.View_probe_reply { view_id; _ }) ] ->
    Alcotest.(check int) "current view" 5 view_id
  | _ -> Alcotest.fail "expected one view probe reply to site 7"

(* A commit to an empty view dissolves the copy. *)
let test_empty_view () =
  let c = copy () in
  let empty = { (view 3) with View.view_id = 2; members = [] } in
  let effects = Copy.step env c (Copy.Frame (0, commit ~new_view:empty)) in
  match List.rev effects with
  | Datapath.Other (Copy.Discard { sites; held = [] }) :: _ ->
    Alcotest.(check (list int)) "an empty view has no site to unmonitor" [] sites
  | _ -> Alcotest.fail "expected the install to end in a discard"

let suite =
  [
    Alcotest.test_case "wedge ack from the data path" `Quick test_wedge_ack;
    Alcotest.test_case "held frame replays after the install" `Quick test_held_frame;
    Alcotest.test_case "stale frame from a non-member" `Quick test_stale_frame;
    Alcotest.test_case "commit to an empty view discards" `Quick test_empty_view;
  ]
