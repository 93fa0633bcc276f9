(* The data-path core driven directly, with no simulator: each case
   feeds [Datapath.step] a few inputs and checks the effects it asks
   for, the way test_flush drives [Flush.step]. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let gid = Addr.group_of_int 7
let proc site = Addr.proc ~site ~idx:0 ~incarnation:0

(* A view of one member at each of sites [0 .. n-1], oldest first. *)
let view n =
  View.apply (View.initial gid (proc 0)) (List.init (n - 1) (fun i -> View.Member_joined (proc (i + 1))))

(* Site [me]'s copy of an [n]-site group, and an env drawing site [me]'s
   uids in order. *)
let copy ?(window = 16) ~me n =
  let next = ref 0 in
  let fresh () =
    let u = { Types.usite = me; useq = !next } in
    incr next;
    u
  in
  let fl = Flush.create ~me ~epoch:0 ~gname:"g" (view n) in
  ({ Datapath.window; fresh; traced = (fun () -> true) }, fl, (Datapath.create fl : string Datapath.state))

let send ?(ack = true) mode = Datapath.Multicast { owner = Some "p"; mode; body = Message.create (); ack }

(* Feed [inputs] in order, collecting every effect. *)
let feed (env, fl, st) inputs =
  List.concat_map (Datapath.step env fl st) inputs

let prio_frame ~src uid prio =
  Datapath.Frame (src, Proto.Ab_prio { group = gid; view_id = 1; uid; prio })

let ab_data = List.filter_map (function Datapath.Mcast (_, Proto.Ab_data { uid; _ }) -> Some uid | _ -> None)
let commits = List.filter_map (function Datapath.Mcast (d, Proto.Ab_commit _) -> Some d | _ -> None)
let delivers = List.filter (function Datapath.Deliver _ -> true | _ -> false)

(* The frames an origin multicast, in order. *)
let mcast_frames = List.filter_map (function Datapath.Mcast (_, f) -> Some f | _ -> None)
let ab_flags = List.filter_map (function Proto.Ab_data { ack; _ } -> Some ack | _ -> None)
let settled = List.filter_map (function Datapath.Settled (_, u) -> Some u | _ -> None)
let stables = List.filter (function Datapath.Mcast (_, Proto.Stable _) -> true | _ -> false)
let deliver_acks = List.filter_map (function Datapath.Send (0, Proto.Deliver_ack { uid; _ }) -> Some uid | _ -> None)
let deliver_ack ~src uid = Datapath.Frame (src, Proto.Deliver_ack { group = gid; uid })

let commit_frame ?(drop = []) ~stabilize ~finalize () =
  Proto.Commit
    { group = gid; view_id = 1; attempt = 1; coord_site = 0; coord_epoch = 0; stabilize;
      ab_finalize = finalize; ab_drop = drop; events = []; new_view = { (view 3) with View.view_id = 2 };
      gname = "g"; gb_bodies = [] }

(* Origin 0 of a 3-site group: the round ends on the second vote, with
   one Ab_commit frame to each remote site and then the local delivery. *)
let test_round () =
  let ((_, _, st) as c) = copy ~me:0 3 in
  let effects = feed c [ send Types.Abcast ] in
  let uid = List.hd (ab_data effects) in
  Alcotest.(check int) "in flight" 1 (Datapath.inflight st);
  Alcotest.(check int) "no commit on one vote" 0 (List.length (commits (feed c [ prio_frame ~src:1 uid (5, 1) ])));
  let effects = feed c [ prio_frame ~src:2 uid (3, 2) ] in
  Alcotest.(check (list (list int))) "one commit frame to each remote site" [ [ 1; 2 ] ] (commits effects);
  let rec commit_then_deliver = function
    | Datapath.Mcast (_, Proto.Ab_commit { prio; _ }) :: rest ->
      prio = (5, 1) && List.exists (function Datapath.Deliver _ -> true | _ -> false) rest
    | _ :: rest -> commit_then_deliver rest
    | [] -> false
  in
  Alcotest.(check bool) "highest vote commits, then delivers" true (commit_then_deliver effects);
  Alcotest.(check int) "slot freed" 0 (Datapath.inflight st);
  Alcotest.(check int) "still unstable until acked" 1 (Datapath.unstable st)

(* Site 2 never votes: the round holds its slot, so with a window of one
   the next ABCAST queues.  The commit that retires the view finalizes
   and delivers it, and the install settles its owner and dispatches the
   queued round. *)
let test_silent_member () =
  let ((env, fl, st) as c) = copy ~window:1 ~me:0 3 in
  let uid = List.hd (ab_data (feed c [ send Types.Abcast ])) in
  ignore (feed c [ prio_frame ~src:1 uid (4, 1); send Types.Abcast ]);
  Alcotest.(check (pair int int)) "round in flight, next one queued" (1, 1)
    (Datapath.inflight st, Datapath.queued st);
  let retired = feed c [ Datapath.Retire (commit_frame ~stabilize:[] ~finalize:[ (uid, (4, 1)) ] ()) ] in
  Alcotest.(check int) "retire delivers the finalized round" 1 (List.length (delivers retired));
  let fl' = { fl with Flush.view = { fl.Flush.view with View.view_id = 2 } } in
  let installed = Datapath.step env fl' st (Datapath.Install (commit_frame ~stabilize:[] ~finalize:[] ())) in
  Alcotest.(check bool) "owner settled" true (List.mem (Datapath.Settled ("p", uid)) installed);
  Alcotest.(check int) "queued round dispatched" 1 (List.length (ab_data installed));
  Alcotest.(check (pair int int)) "pipeline restarted" (1, 0) (Datapath.inflight st, Datapath.queued st)

(* A vote counts once per sender. *)
let test_duplicate_vote () =
  let ((_, _, st) as c) = copy ~me:0 3 in
  let uid = List.hd (ab_data (feed c [ send Types.Abcast ])) in
  let effects = feed c [ prio_frame ~src:1 uid (4, 1); prio_frame ~src:1 uid (4, 1) ] in
  Alcotest.(check int) "no commit" 0 (List.length (commits effects));
  Alcotest.(check int) "still in flight" 1 (Datapath.inflight st)

(* Window 4, so bursts of two: an empty pipeline dispatches at once; one
   free slot dispatches nothing while rounds are in flight; two do. *)
let test_burst () =
  let ((_, _, st) as c) = copy ~window:4 ~me:0 2 in
  let sent = ref [] in
  let run inputs =
    let uids = ab_data (feed c inputs) in
    sent := !sent @ uids;
    List.length uids
  in
  let vote i = run [ prio_frame ~src:1 (List.nth !sent i) (i + 1, 1) ] in
  Alcotest.(check int) "empty pipeline: at once" 1 (run [ send Types.Abcast ]);
  Alcotest.(check int) "then a burst of two" 2 (run (List.init 5 (fun _ -> send Types.Abcast)));
  Alcotest.(check (pair int int)) "three in flight, three queued" (3, 3)
    (Datapath.inflight st, Datapath.queued st);
  Alcotest.(check int) "two free slots: a burst" 2 (vote 0);
  Alcotest.(check int) "one free slot: nothing" 0 (vote 1);
  Alcotest.(check int) "two free, one queued: nothing" 0 (vote 2 + vote 3);
  Alcotest.(check int) "drained pipeline: at once" 1 (vote 4);
  Alcotest.(check (pair int int)) "last round in flight" (1, 0) (Datapath.inflight st, Datapath.queued st)

(* A packed run of three CBCASTs, only the last flagged.  At the origin
   one Deliver_ack for the last settles all three; at the receiver only
   the last owes a Deliver_ack, and its Stable unstores all three. *)
let test_packed_run () =
  let ((_, _, st) as c) = copy ~me:0 2 in
  let effects = feed c [ send ~ack:false Types.Cbcast; send ~ack:false Types.Cbcast; send Types.Cbcast ] in
  let frames = List.filter_map (function Datapath.Mcast ([ 1 ], f) -> Some f | _ -> None) effects in
  let uids = List.filter_map (function Proto.Cb_data { uid; _ } -> Some uid | _ -> None) frames in
  let last = List.nth uids 2 in
  Alcotest.(check (pair int int)) "origin holds the run" (3, 3) (Datapath.unstable st, Datapath.stored st);
  let acked = feed c [ Datapath.Frame (1, Proto.Deliver_ack { group = gid; uid = last }) ] in
  Alcotest.(check bool) "all three settled, oldest first" true
    (List.filter_map (function Datapath.Settled (_, u) -> Some u | _ -> None) acked = uids);
  Alcotest.(check int) "one Stable" 1
    (List.length (List.filter (function Datapath.Mcast (_, Proto.Stable _) -> true | _ -> false) acked));
  Alcotest.(check (pair int int)) "origin clear" (0, 0) (Datapath.unstable st, Datapath.stored st);
  let ((_, _, rst) as r) = copy ~me:1 2 in
  let received = feed r (List.map (fun f -> Datapath.Frame (0, f)) frames) in
  Alcotest.(check int) "three delivered" 3 (List.length (delivers received));
  Alcotest.(check bool) "one Deliver_ack, for the last" true
    (List.filter_map (function Datapath.Send (0, Proto.Deliver_ack { uid; _ }) -> Some uid | _ -> None) received
     = [ last ]);
  ignore (feed r [ Datapath.Frame (0, Proto.Stable { group = gid; uid = last }) ]);
  Alcotest.(check int) "receiver unstored the run" 0 (Datapath.stored rst)

(* Window 8 at 3 sites: a lone round, then four sends that leave as one
   half-window burst.  Only each burst's last round is flagged.  Both
   members' one Deliver_ack for it settles all four rounds with one
   Stable fan-out; at a member the four deliveries owe one Deliver_ack,
   and its Stable unstores all four. *)
let test_abcast_burst () =
  let ((_, _, st) as c) = copy ~window:8 ~me:0 3 in
  let lone = feed c [ send Types.Abcast ] in
  let burst = feed c (List.init 4 (fun _ -> send Types.Abcast)) in
  Alcotest.(check (list bool)) "a lone round is flagged" [ true ] (ab_flags (mcast_frames lone));
  Alcotest.(check (list bool)) "only the burst's last round is flagged" [ false; false; false; true ]
    (ab_flags (mcast_frames burst));
  let r0 = List.hd (ab_data lone) and uids = ab_data burst in
  let last = List.nth uids 3 in
  (* Both members vote; each round commits at a higher final priority. *)
  let votes =
    List.concat (List.mapi (fun i u -> [ prio_frame ~src:1 u (10 + i, 1); prio_frame ~src:2 u (10 + i, 2) ]) (r0 :: uids))
  in
  let voted = feed c votes in
  Alcotest.(check int) "five rounds committed" 5 (List.length (commits voted));
  Alcotest.(check int) "all five unstable" 5 (Datapath.unstable st);
  let acked = feed c [ deliver_ack ~src:1 last; deliver_ack ~src:2 last ] in
  Alcotest.(check bool) "the burst settled, oldest first" true (settled acked = uids);
  Alcotest.(check int) "one Stable fan-out" 1 (List.length (stables acked));
  Alcotest.(check int) "the lone round waits for its own" 1 (Datapath.unstable st);
  let acked = feed c [ deliver_ack ~src:1 r0; deliver_ack ~src:2 r0 ] in
  Alcotest.(check bool) "the lone round settled alone" true (settled acked = [ r0 ]);
  Alcotest.(check int) "with its own Stable" 1 (List.length (stables acked));
  Alcotest.(check (pair int int)) "origin clear" (0, 0) (Datapath.unstable st, Datapath.stored st);
  (* Member 1 receives the rounds and their commits as the origin sent them. *)
  let ((_, _, rst) as r) = copy ~me:1 3 in
  let frames = mcast_frames (lone @ burst @ voted) in
  let received = feed r (List.map (fun f -> Datapath.Frame (0, f)) frames) in
  Alcotest.(check int) "five delivered" 5 (List.length (delivers received));
  Alcotest.(check bool) "one Deliver_ack each for the lone round and the burst" true
    (deliver_acks received = [ r0; last ]);
  Alcotest.(check int) "all five stored" 5 (Datapath.stored rst);
  ignore (feed r [ Datapath.Frame (0, Proto.Stable { group = gid; uid = last }) ]);
  Alcotest.(check int) "the burst's Stable unstored four" 1 (Datapath.stored rst);
  ignore (feed r [ Datapath.Frame (0, Proto.Stable { group = gid; uid = r0 }) ]);
  Alcotest.(check int) "member clear" 0 (Datapath.stored rst)

(* A burst of four whose flagged last round is still uncommitted when a
   view change retires the view: site 2's vote for it never comes.  The
   first three rounds are delivered everywhere but wait for that
   round's acknowledgement.  The commit finalizes them and drops the
   fourth; the install settles every owner and leaves no record. *)
let test_abcast_burst_flushed () =
  let ((env, fl, st) as c) = copy ~window:8 ~me:0 3 in
  let sent = feed c (List.init 5 (fun _ -> send Types.Abcast)) in
  let r0, burst = match ab_data sent with r0 :: burst -> (r0, burst) | [] -> Alcotest.fail "no rounds" in
  let last = List.nth burst 3 in
  let members = List.map (fun me -> copy ~me 3) [ 1; 2 ] in
  let to_members frames =
    List.map (fun m -> feed m (List.map (fun f -> Datapath.Frame (0, f)) frames)) members
  in
  (* Each member's proposals, as votes at the origin; site 2's for the
     last round is lost. *)
  let votes =
    List.concat
      (List.mapi
         (fun i effects ->
           List.filter_map
             (function
               | Datapath.Send (0, (Proto.Ab_prio { uid; _ } as f)) when i = 0 || not (Types.uid_equal uid last) ->
                 Some (Datapath.Frame (i + 1, f))
               | _ -> None)
             effects)
         (to_members (mcast_frames sent)))
  in
  let voted = feed c votes in
  let committed = List.filter_map (function Proto.Ab_commit { uid; prio; _ } -> Some (uid, prio) | _ -> None) (mcast_frames voted) in
  Alcotest.(check int) "all but the last round committed" 4 (List.length committed);
  Alcotest.(check int) "and delivered at the origin" 4 (List.length (delivers voted));
  List.iter
    (fun effects ->
      Alcotest.(check int) "delivered at the member" 4 (List.length (delivers effects));
      Alcotest.(check bool) "which owes only the lone round's Deliver_ack" true (deliver_acks effects = [ r0 ]))
    (to_members (mcast_frames voted));
  ignore (to_members (mcast_frames (feed c [ deliver_ack ~src:1 r0; deliver_ack ~src:2 r0 ])));
  Alcotest.(check int) "the burst waits on its last round" 4 (Datapath.unstable st);
  let commit =
    commit_frame ~drop:[ last ] ~stabilize:[] ~finalize:(List.filter (fun (u, _) -> u <> r0) committed) ()
  in
  let next (fl : Flush.state) = { fl with Flush.view = { fl.Flush.view with View.view_id = 2 } } in
  Alcotest.(check int) "retire delivers nothing twice" 0 (List.length (delivers (feed c [ Datapath.Retire commit ])));
  let installed = Datapath.step env (next fl) st (Datapath.Install commit) in
  Alcotest.(check bool) "every owner of the burst settled" true (settled installed = burst);
  Alcotest.(check (pair int int)) "origin clear" (0, 0) (Datapath.unstable st, Datapath.stored st);
  List.iter
    (fun ((menv, mfl, mst) as m) ->
      Alcotest.(check int) "member held the three" 3 (Datapath.stored mst);
      ignore (feed m [ Datapath.Retire commit ]);
      ignore (Datapath.step menv (next mfl) mst (Datapath.Install commit));
      Alcotest.(check int) "member clear" 0 (Datapath.stored mst))
    members;
  let after = Datapath.step env (next fl) st (send Types.Abcast) in
  Alcotest.(check (list bool)) "the next view's lone round is flagged" [ true ] (ab_flags (mcast_frames after))

(* [body-missing] is a note, not a lost message: a wedge ack lists a
   body its site then garbage-collects when a [Stable] arrives (stability
   frames still flow while wedged), and another site's ack already left
   the uid out for the same reason, so the coordinator fetches a body
   nobody keeps.  A stable uid was delivered at every destination, so
   every site of the next view delivered it before the report. *)
let test_body_missing_was_delivered () =
  let module Event = Vsync_obs.Event in
  let evs = ref [] in
  (match Scenario.run ~sites:4 ~trace_sink:(fun r -> evs := r :: !evs) ~seed:1000L () with
  | Ok r -> Alcotest.(check int) "oracle clean" 0 (List.length r.Scenario.violations)
  | Error e -> Alcotest.fail e);
  let evs = List.rev !evs in
  let delivered = Hashtbl.create 1024 and installs = ref [] and missing = ref [] in
  List.iter
    (fun { Event.at; ev } ->
      match ev with
      | Event.Deliver { site; usite; useq; _ } ->
        if not (Hashtbl.mem delivered (site, usite, useq)) then Hashtbl.add delivered (site, usite, useq) at
      | Event.View_install { site; view_id; _ } -> installs := (at, view_id, site) :: !installs
      | Event.Error_event { what = "body-missing"; detail; _ } ->
        missing := Scanf.sscanf detail "g%d u%d.%d" (fun _ usite useq -> (at, usite, useq)) :: !missing
      | _ -> ())
    evs;
  Alcotest.(check bool) "the run reports missing bodies" true (!missing <> []);
  List.iter
    (fun (at, usite, useq) ->
      let later = List.filter (fun (t, _, _) -> t > at) !installs in
      let next = List.fold_left (fun m (_, v, _) -> min m v) max_int later in
      List.iter
        (fun (_, v, site) ->
          if v = next then
            Alcotest.(check bool)
              (Printf.sprintf "u%d.%d delivered at s%d before the report" usite useq site)
              true
              (match Hashtbl.find_opt delivered (site, usite, useq) with Some t -> t <= at | None -> false))
        later)
    !missing

let suite =
  [
    Alcotest.test_case "3-site ABCAST round" `Quick test_round;
    Alcotest.test_case "member that never votes" `Quick test_silent_member;
    Alcotest.test_case "second vote from one site" `Quick test_duplicate_vote;
    Alcotest.test_case "half-window bursts" `Quick test_burst;
    Alcotest.test_case "packed CBCAST run acked once" `Quick test_packed_run;
    Alcotest.test_case "an ABCAST burst acked once" `Quick test_abcast_burst;
    Alcotest.test_case "an ABCAST burst's last round dropped by a flush" `Quick test_abcast_burst_flushed;
    Alcotest.test_case "a missing body was delivered everywhere" `Quick test_body_missing_was_delivered;
  ]
