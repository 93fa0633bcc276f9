(* The flush core driven directly, with no simulator: each case feeds
   [Flush.step] a few inputs and checks the effects it asks for. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let gid = Addr.group_of_int 7
let proc site = Addr.proc ~site ~idx:0 ~incarnation:0

(* A view of one member at each of sites [0 .. n-1], oldest first. *)
let view n =
  View.apply (View.initial gid (proc 0)) (List.init (n - 1) (fun i -> View.Member_joined (proc (i + 1))))

let copy ~me n = Flush.create ~me ~epoch:0 ~gname:"g" (view n)

(* Feed [inputs] in order, collecting every effect. *)
let feed st inputs =
  List.fold_left
    (fun (st, acc) input ->
      let st, effects = Flush.step st input in
      (st, acc @ effects))
    (st, []) inputs

let wedge st ~attempt ~coord =
  Flush.Frame
    ( coord,
      Proto.Wedge
        { group = gid; view_id = st.Flush.view.View.view_id; attempt; coord_site = coord; coord_epoch = 0 } )

let commit st ~attempt ~coord =
  Proto.Commit
    { group = gid; view_id = st.Flush.view.View.view_id; attempt; coord_site = coord; coord_epoch = 0;
      stabilize = []; ab_finalize = []; ab_drop = []; events = [];
      new_view = { st.Flush.view with View.view_id = attempt + 1 }; gname = "g"; gb_bodies = [] }

let ack st ~attempt ~from ?already () =
  Flush.Frame
    ( from,
      Proto.Wedge_ack
        { group = gid; view_id = st.Flush.view.View.view_id; attempt; from_site = from; cb_known = [];
          ab_report = []; ab_counter = 0; already_committed = already } )

let gb useq = Flush.Ev_gb ({ Types.usite = 0; useq }, Message.create ())
let is_gb useq = function Flush.Ev_gb (u, _) -> u.Types.useq = useq | _ -> false

(* The 77001 shape: wedged for s0's attempt 9, then for s1's attempt 10;
   s0's commit for attempt 9 must be fenced, not installed. *)
let test_fenced_commit () =
  let st = copy ~me:3 4 in
  let st, _ = feed st [ wedge st ~attempt:9 ~coord:0; wedge st ~attempt:10 ~coord:1 ] in
  let _, effects = Flush.step st (Flush.Frame (0, commit st ~attempt:9 ~coord:0)) in
  Alcotest.(check bool) "no retire or install" false
    (List.exists (function Flush.Retire _ | Flush.Install _ -> true | _ -> false) effects);
  Alcotest.(check bool) "fenced" true
    (effects = [ Flush.Note (Flush.Fenced { view_id = 2; attempt = 9; src = 0 }) ])

(* A complete ack set where one ack carries a commit already applied:
   the coordinator re-sends exactly that commit to its wedge set and
   puts its batch back ahead of the events queued since. *)
let test_already_committed () =
  let st = copy ~me:0 3 in
  let st, _ = feed st [ Flush.Event (gb 1); Flush.Event (gb 2) ] in
  let attempt = (Option.get st.Flush.change).Flush.c_attempt in
  let frame = commit st ~attempt:5 ~coord:2 in
  let st, effects =
    feed st [ ack st ~attempt ~from:0 (); ack st ~attempt ~from:1 ~already:frame (); ack st ~attempt ~from:2 () ]
  in
  Alcotest.(check bool) "re-send that commit to c_sites" true
    (effects = List.map (fun dst -> Flush.Send (dst, frame)) [ 0; 1; 2 ]);
  Alcotest.(check bool) "change cleared" true (st.Flush.change = None);
  Alcotest.(check (list bool)) "batch requeued ahead of later events" [ true; true ]
    (List.map2 (fun useq ev -> is_gb useq ev) [ 1; 2 ] st.Flush.queue)

(* A wedge that loses to the one held is answered with the winner. *)
let test_losing_wedge_echoed () =
  let st = copy ~me:2 3 in
  let st, _ = Flush.step st (wedge st ~attempt:5 ~coord:0) in
  let _, effects = Flush.step st (wedge st ~attempt:4 ~coord:1) in
  Alcotest.(check bool) "echo the held wedge" true
    (effects
    = [ Flush.Send
          (1, Proto.Wedge { group = gid; view_id = 2; attempt = 5; coord_site = 0; coord_epoch = 0 }) ])

(* After a requeue, a re-routed copy of a batch event collapses onto
   the requeued original. *)
let test_requeue_collapses () =
  let st = copy ~me:0 3 in
  let st, _ = Flush.step st (Flush.Event (gb 1)) in
  (* A higher-precedence wedge from site 1 abandons our change. *)
  let st, _ = Flush.step st (wedge st ~attempt:9 ~coord:1) in
  Alcotest.(check int) "batch requeued" 1 (List.length st.Flush.queue);
  let st, _ = Flush.step st (Flush.Event (gb 1)) in
  let batch = match st.Flush.change with Some c -> c.Flush.c_batch | None -> [] in
  Alcotest.(check int) "one copy" 1 (List.length (List.filter (is_gb 1) (st.Flush.queue @ batch)))

let suite =
  [
    Alcotest.test_case "77001 shape: stale commit fenced" `Quick test_fenced_commit;
    Alcotest.test_case "already-committed ack re-sent" `Quick test_already_committed;
    Alcotest.test_case "losing wedge echoed" `Quick test_losing_wedge_echoed;
    Alcotest.test_case "requeue collapses re-routed copy" `Quick test_requeue_collapses;
  ]
