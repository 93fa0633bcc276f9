(* Property-level tests of the virtual synchrony guarantees: the
   ordering engines in isolation, then whole-system invariants under
   packet loss and injected failures. *)

open Vsync_core
open Types
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Vclock = Vsync_util.Vclock

let e_app = Entry.user 0
let uid ~site ~seq = { usite = site; useq = seq }

(* --- causal engine --- *)

let test_causal_engine_delays_successor () =
  let t = Causal.create ~n_ranks:3 () in
  (* m2 (from rank 1) causally follows m1 (from rank 0) but arrives
     first: it must wait. *)
  Causal.receive t ~uid:(uid ~site:1 ~seq:0) ~rank:1 ~vt:(Vclock.of_list [ 1; 1; 0 ]) "m2";
  Alcotest.(check (list string)) "m2 delayed" [] (List.map snd (Causal.drain t));
  Causal.receive t ~uid:(uid ~site:0 ~seq:0) ~rank:0 ~vt:(Vclock.of_list [ 1; 0; 0 ]) "m1";
  Alcotest.(check (list string)) "m1 unlocks m2" [ "m1"; "m2" ] (List.map snd (Causal.drain t))

let test_causal_engine_fifo_per_sender () =
  let t = Causal.create ~n_ranks:2 () in
  Causal.receive t ~uid:(uid ~site:0 ~seq:1) ~rank:0 ~vt:(Vclock.of_list [ 2; 0 ]) "second";
  Causal.receive t ~uid:(uid ~site:0 ~seq:0) ~rank:0 ~vt:(Vclock.of_list [ 1; 0 ]) "first";
  Alcotest.(check (list string)) "sender order restored" [ "first"; "second" ]
    (List.map snd (Causal.drain t))

let test_causal_engine_duplicates () =
  let t = Causal.create ~n_ranks:2 () in
  let u = uid ~site:0 ~seq:0 in
  Causal.receive t ~uid:u ~rank:0 ~vt:(Vclock.of_list [ 1; 0 ]) "m";
  Causal.receive t ~uid:u ~rank:0 ~vt:(Vclock.of_list [ 1; 0 ]) "m";
  Alcotest.(check int) "delivered once" 1 (List.length (Causal.drain t));
  Alcotest.(check bool) "seen" true (Causal.seen t u)

let test_causal_engine_client_fifo () =
  let t = Causal.create ~n_ranks:2 () in
  Causal.receive_fifo t ~uid:(uid ~site:9 ~seq:0) "c1";
  Causal.receive_fifo t ~uid:(uid ~site:9 ~seq:1) "c2";
  Alcotest.(check (list string)) "client sends pass through" [ "c1"; "c2" ]
    (List.map snd (Causal.drain t))

let test_causal_force_drain () =
  let t = Causal.create ~n_ranks:2 () in
  (* A message whose predecessor died with its sender: normal drain
     holds it, force_drain (post-stabilization) releases it. *)
  Causal.receive t ~uid:(uid ~site:0 ~seq:1) ~rank:0 ~vt:(Vclock.of_list [ 2; 0 ]) "orphan";
  Alcotest.(check int) "held" 0 (List.length (Causal.drain t));
  Alcotest.(check int) "pending" 1 (List.length (Causal.pending t));
  Alcotest.(check (list string)) "force-drained" [ "orphan" ]
    (List.map snd (Causal.force_drain t))

(* --- total order engine --- *)

let test_total_engine_priority_order () =
  (* Two sites, two messages: the engines must agree on the final
     order regardless of arrival order. *)
  let a = Total.create ~site:0 () and b = Total.create ~site:1 () in
  let u1 = uid ~site:0 ~seq:0 and u2 = uid ~site:1 ~seq:0 in
  (* Site 0 sees u1 then u2; site 1 sees u2 then u1. *)
  let p_a1 = Total.intake a ~uid:u1 "m1" in
  let p_a2 = Total.intake a ~uid:u2 "m2" in
  let p_b2 = Total.intake b ~uid:u2 "m2" in
  let p_b1 = Total.intake b ~uid:u1 "m1" in
  let f1 = prio_max p_a1 p_b1 and f2 = prio_max p_a2 p_b2 in
  Total.commit a ~uid:u1 f1;
  Total.commit a ~uid:u2 f2;
  Total.commit b ~uid:u1 f1;
  Total.commit b ~uid:u2 f2;
  let order_a = List.map (fun (_, _, p) -> p) (Total.drain a) and order_b = List.map (fun (_, _, p) -> p) (Total.drain b) in
  Alcotest.(check (list string)) "identical total order" order_a order_b

let test_total_engine_blocks_until_commit () =
  let t = Total.create ~site:0 () in
  let u1 = uid ~site:0 ~seq:0 and u2 = uid ~site:1 ~seq:0 in
  let p1 = Total.intake t ~uid:u1 "m1" in
  let _p2 = Total.intake t ~uid:u2 "m2" in
  Total.commit t ~uid:u1 p1;
  (* u2 proposed before u1's commit could have a lower final priority
     elsewhere: the engine must not deliver past an uncommitted head if
     it sorts first; here u1 sorts first and is committed. *)
  Alcotest.(check (list string)) "committed prefix only" [ "m1" ] (List.map (fun (_, _, p) -> p) (Total.drain t));
  Total.commit t ~uid:u2 (10, 1);
  Alcotest.(check (list string)) "rest after commit" [ "m2" ] (List.map (fun (_, _, p) -> p) (Total.drain t))

let test_total_engine_commit_before_payload () =
  let t = Total.create ~site:0 () in
  let u = uid ~site:2 ~seq:5 in
  Total.commit t ~uid:u (3, 2);
  Alcotest.(check int) "no payload, no delivery" 0 (List.length (Total.drain t));
  Total.add_payload t ~uid:u "late body";
  Alcotest.(check (list string)) "delivered once body arrives" [ "late body" ]
    (List.map (fun (_, _, p) -> p) (Total.drain t))

let test_total_engine_drop () =
  let t = Total.create ~site:0 () in
  let u = uid ~site:1 ~seq:0 in
  ignore (Total.intake t ~uid:u "doomed");
  Total.drop t ~uid:u;
  Alcotest.(check int) "dropped" 0 (List.length (Total.pending t));
  let u2 = uid ~site:1 ~seq:1 in
  let p = Total.intake t ~uid:u2 "kept" in
  Total.commit t ~uid:u2 p;
  Alcotest.check_raises "cannot drop committed" (Invalid_argument "Total.drop: message is committed")
    (fun () -> Total.drop t ~uid:u2)

(* --- whole-system properties --- *)

(* Deliveries logged per member as (view_id_when_delivered, kind, tag);
   view changes logged inline. *)
type ev = Delivered of int (* tag *) | View_installed of int (* view id *)

let run_scenario ~seed ~loss ~crash_member =
  (* Form the group losslessly; loss applies to the traffic under
     study (sustained loss during formation can legitimately shun a
     member, which is the partition case, not what these tests
     probe). *)
  let w = World.create ~seed ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
  let logs = Array.make 3 [] in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "prop"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "prop");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  Array.iteri
    (fun i m ->
      Runtime.bind m e_app (fun msg ->
          logs.(i) <- Delivered (Option.get (Message.get_int msg "tag")) :: logs.(i));
      Runtime.pg_monitor m gid (fun v _ -> logs.(i) <- View_installed v.View.view_id :: logs.(i)))
    members;
  Vsync_sim.Net.set_loss (World.net w) loss;
  (* Mixed multicast traffic from every member, interleaved. *)
  Array.iteri
    (fun i m ->
      World.run_task w m (fun () ->
          for k = 0 to 9 do
            Runtime.sleep m ((k * 40_000) + (i * 13_000));
            let msg = Message.create () in
            Message.set_int msg "tag" ((i * 1000) + k);
            let mode = if k mod 2 = 0 then Abcast else Cbcast in
            ignore
              (Runtime.bcast m mode ~dest:(Addr.Group gid) ~entry:e_app msg ~want:No_reply)
          done))
    members;
  (* Crash one member's site mid-stream. *)
  (match crash_member with
  | Some i ->
    World.run_for w 150_000;
    World.crash_site w i
  | None -> ());
  (* Long enough for failure detection plus the flush, short enough
     that sustained loss cannot plausibly fracture the group through
     repeated false suspicions (which would be the partition case the
     paper excludes). *)
  World.run ~until:(World.now w + 20_000_000) w;
  (members, logs, crash_member)

(* The virtual synchrony invariant: survivors deliver the same messages
   in the same views; ABCAST tags appear in the same relative order. *)
let check_vs_invariant logs survivors =
  let segments log =
    (* Split the event list (oldest first) into per-view segments. *)
    List.fold_left
      (fun segs ev ->
        match ev, segs with
        | View_installed v, _ -> (v, []) :: segs
        | Delivered tag, (v, tags) :: rest -> (v, tag :: tags) :: rest
        (* Deliveries before the first observed view change belong to
           the view current at registration: view 3 after the two
           joins, at every member alike. *)
        | Delivered tag, [] -> (3, [ tag ]) :: [])
      [] log
    |> List.rev_map (fun (v, tags) -> (v, List.rev tags))
  in
  let segs = List.map (fun i -> (i, segments (List.rev logs.(i)))) survivors in
  (* For every pair of survivors and every view id both have: same
     delivered multiset, same ABCAST relative order.  (ABCAST tags are
     the even k values by construction.) *)
  let is_ab tag = tag mod 2 = 0 in
  List.iter
    (fun (i, si) ->
      List.iter
        (fun (j, sj) ->
          if i < j then
            List.iter
              (fun (v, tags_i) ->
                match List.assoc_opt v sj with
                | None -> ()
                | Some tags_j ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "view %d: same multiset at %d and %d" v i j)
                    (List.sort compare tags_i) (List.sort compare tags_j);
                  Alcotest.(check (list int))
                    (Printf.sprintf "view %d: same ABCAST order at %d and %d" v i j)
                    (List.filter is_ab tags_i) (List.filter is_ab tags_j))
              si)
        segs)
    segs

let test_vs_invariant_no_failures () =
  let _members, logs, _ = run_scenario ~seed:101L ~loss:0.0 ~crash_member:None in
  check_vs_invariant logs [ 0; 1; 2 ];
  (* Everything sent must arrive everywhere: 30 messages. *)
  Array.iteri
    (fun i log ->
      let n = List.length (List.filter (function Delivered _ -> true | _ -> false) log) in
      Alcotest.(check int) (Printf.sprintf "member %d delivered all" i) 30 n)
    logs

let delivered_count log =
  List.length (List.filter (function Delivered _ -> true | _ -> false) log)

let test_vs_invariant_with_loss () =
  (* Sustained loss can legitimately trip the failure detector (the
     paper: a falsely suspected entity "will have to undergo recovery
     even if it was actually experiencing a transient communication
     problem") — so the count assertion only applies when the final
     membership is intact; the agreement invariant applies always. *)
  let _members, logs, _ = run_scenario ~seed:202L ~loss:0.08 ~crash_member:None in
  check_vs_invariant logs [ 0; 1; 2 ];
  (* Every member that stayed in the group to the end must have the
     full stream; a falsely-suspected member simply stops at its
     exclusion point, which the invariant check above already covers. *)
  let max_count =
    Array.fold_left (fun acc log -> max acc (delivered_count log)) 0 logs
  in
  Alcotest.(check int) "someone delivered the full stream" 30 max_count

let test_vs_invariant_with_crash () =
  (* Crash member 2's site mid-burst over several seeds: the two
     survivors must always agree. *)
  List.iter
    (fun seed ->
      let _members, logs, _ = run_scenario ~seed ~loss:0.0 ~crash_member:(Some 2) in
      check_vs_invariant logs [ 0; 1 ])
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let test_vs_invariant_crash_and_loss () =
  List.iter
    (fun seed ->
      let _members, logs, _ = run_scenario ~seed ~loss:0.05 ~crash_member:(Some 1) in
      check_vs_invariant logs [ 0; 2 ])
    [ 11L; 12L; 13L; 14L ]

(* Causality across members under loss-induced reordering: A sends m1;
   B, having delivered m1, sends m2; everyone must deliver m1 first. *)
let test_causal_chain_under_loss () =
  List.iter
    (fun seed ->
      let w = World.create ~seed ~sites:3 () in
      let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
      let gid = ref None in
      World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "chain"));
      World.run w;
      let gid = Option.get !gid in
      for i = 1 to 2 do
        World.run_task w members.(i) (fun () ->
            ignore (Runtime.pg_lookup members.(i) "chain");
            ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
      done;
      World.run w;
      Vsync_sim.Net.set_loss (World.net w) 0.1;
      let order_at_2 = ref [] in
      Runtime.bind members.(2) e_app (fun msg ->
          order_at_2 := Option.get (Message.get_int msg "tag") :: !order_at_2);
      Runtime.bind members.(1) e_app (fun msg ->
          (* React to m1 by multicasting m2: a causal chain. *)
          if Message.get_int msg "tag" = Some 1 then begin
            let m2 = Message.create () in
            Message.set_int m2 "tag" 2;
            ignore
              (Runtime.bcast members.(1) Cbcast ~dest:(Addr.Group gid) ~entry:e_app m2
                 ~want:No_reply)
          end);
      Runtime.bind members.(0) e_app (fun _ -> ());
      World.run_task w members.(0) (fun () ->
          let m1 = Message.create () in
          Message.set_int m1 "tag" 1;
          ignore
            (Runtime.bcast members.(0) Cbcast ~dest:(Addr.Group gid) ~entry:e_app m1
               ~want:No_reply));
      World.run ~until:(World.now w + 20_000_000) w;
      Alcotest.(check (list int))
        (Printf.sprintf "causal order at third member (seed %Ld)" seed)
        [ 1; 2 ] (List.rev !order_at_2))
    [ 31L; 32L; 33L; 34L; 35L; 36L ]

(* Flush: after it returns, every prior asynchronous CBCAST has been
   delivered at every destination. *)
let test_flush_guarantee () =
  let w = World.create ~seed:51L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
  let counts = Array.make 3 0 in
  Array.iteri (fun i m -> Runtime.bind m e_app (fun _ -> counts.(i) <- counts.(i) + 1)) members;
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "flush"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "flush");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  let checked = ref false in
  World.run_task w members.(0) (fun () ->
      for k = 1 to 15 do
        let m = Message.create () in
        Message.set_int m "tag" k;
        ignore (Runtime.bcast members.(0) Cbcast ~dest:(Addr.Group gid) ~entry:e_app m ~want:No_reply)
      done;
      Runtime.flush members.(0);
      (* The instant flush returns, remote replicas are complete. *)
      Alcotest.(check int) "remote replica 1 complete at flush return" 15 counts.(1);
      Alcotest.(check int) "remote replica 2 complete at flush return" 15 counts.(2);
      checked := true);
  World.run w;
  Alcotest.(check bool) "flush returned" true !checked

(* Flush across a failure: a destination crashes right after the
   origin's CBCASTs leave, so their acknowledgements never come.  The
   view change that removes it discharges the retiring view's copies,
   which must release [flush] and leave no stability record behind. *)
let test_flush_released_by_install () =
  let w = World.create ~seed:52L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
  let counts = Array.make 3 0 in
  Array.iteri (fun i m -> Runtime.bind m e_app (fun _ -> counts.(i) <- counts.(i) + 1)) members;
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "settle"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "settle");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  let flushed_in = ref None in
  World.run_task w members.(0) (fun () ->
      for k = 1 to 10 do
        let m = Message.create () in
        Message.set_int m "tag" k;
        ignore (Runtime.bcast members.(0) Cbcast ~dest:(Addr.Group gid) ~entry:e_app m ~want:No_reply)
      done;
      Runtime.flush members.(0);
      flushed_in := Option.map View.n_members (Runtime.pg_view members.(0) gid));
  Alcotest.(check bool) "the first CBCAST reached a destination" true
    (World.run_cond ~slice_us:100 ~timeout_us:10_000_000 w (fun () -> counts.(1) > 0));
  World.crash_site w 2;
  World.run w;
  Alcotest.(check (option int)) "flush returned in the two-member view" (Some 2) !flushed_in;
  Alcotest.(check int) "the survivor delivered every CBCAST" 10 counts.(1);
  for s = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "site %d: no unstable messages" s) 0
      (Runtime.pending_unstable (World.runtime w s))
  done

(* Partitions stall affected groups; healing resumes progress (the
   paper tolerates no partitions — Sec 2.1). *)
let test_partition_stalls_then_heals () =
  (* The partition heals before the failure detector gives up on the
     other site, so it is a communication outage, not a (correctly!)
     detected failure — the paper: partitioning "could cause parts of
     our system to hang until communication is restored". *)
  let w = World.create ~seed:61L ~sites:2 () in
  let members = Array.init 2 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
  let count1 = ref 0 in
  Runtime.bind members.(0) e_app (fun _ -> ());
  Runtime.bind members.(1) e_app (fun _ -> incr count1);
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "part"));
  World.run w;
  let gid = Option.get !gid in
  World.run_task w members.(1) (fun () ->
      ignore (Runtime.pg_lookup members.(1) "part");
      ignore (Runtime.pg_join members.(1) gid ~credentials:(Message.create ())));
  World.run w;
  World.partition w [ 0 ] [ 1 ];
  World.run_task w members.(0) (fun () ->
      let m = Message.create () in
      Message.set_int m "tag" 1;
      ignore (Runtime.bcast members.(0) Abcast ~dest:(Addr.Group gid) ~entry:e_app m ~want:No_reply));
  (* Short of the failure-detection timeout, the update is simply
     stuck. *)
  World.run_for w 1_000_000;
  Alcotest.(check int) "stalled during partition" 0 !count1;
  (match Runtime.pg_view members.(0) gid with
  | Some v -> Alcotest.(check int) "no failure detected before the heal" 2 (View.n_members v)
  | None -> Alcotest.fail "no view at the heal");
  World.heal w;
  World.run_for w 60_000_000;
  Alcotest.(check int) "delivered after healing" 1 !count1

(* Protocol-state hygiene: after heavy traffic quiesces, the stability
   tracking, held-frame buffers and reply sessions are all empty —
   nothing leaks. *)
let test_no_state_leaks () =
  let w = World.create ~seed:71L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "p%d" s)) in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "leak"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "leak");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  Array.iter
    (fun m ->
      Runtime.bind m e_app (fun req ->
          if Message.session req <> None then Runtime.reply m ~request:req (Message.create ())))
    members;
  Array.iteri
    (fun i m ->
      World.run_task w m (fun () ->
          for k = 0 to 19 do
            let msg = Message.create () in
            Message.set_int msg "tag" k;
            let mode = if k mod 2 = 0 then Abcast else Cbcast in
            let want = if k mod 5 = 0 then Wait_all else No_reply in
            ignore (Runtime.bcast m mode ~dest:(Addr.Group gid) ~entry:e_app msg ~want);
            Runtime.sleep m (10_000 + (i * 3_000))
          done))
    members;
  World.run w;
  World.run w;
  for s = 0 to 2 do
    let rt = World.runtime w s in
    Alcotest.(check int) (Printf.sprintf "site %d: no unstable messages" s) 0
      (Runtime.pending_unstable rt);
    Alcotest.(check int) (Printf.sprintf "site %d: no held frames" s) 0
      (Runtime.pending_held_frames rt);
    Alcotest.(check int) (Printf.sprintf "site %d: no open sessions" s) 0
      (Runtime.pending_sessions rt)
  done

let suite =
  [
    Alcotest.test_case "causal engine delays successor" `Quick test_causal_engine_delays_successor;
    Alcotest.test_case "causal engine fifo per sender" `Quick test_causal_engine_fifo_per_sender;
    Alcotest.test_case "causal engine duplicates" `Quick test_causal_engine_duplicates;
    Alcotest.test_case "causal engine client fifo" `Quick test_causal_engine_client_fifo;
    Alcotest.test_case "causal engine force drain" `Quick test_causal_force_drain;
    Alcotest.test_case "total engine priority order" `Quick test_total_engine_priority_order;
    Alcotest.test_case "total engine blocks until commit" `Quick test_total_engine_blocks_until_commit;
    Alcotest.test_case "total engine commit before payload" `Quick test_total_engine_commit_before_payload;
    Alcotest.test_case "total engine drop" `Quick test_total_engine_drop;
    Alcotest.test_case "vs invariant: no failures" `Quick test_vs_invariant_no_failures;
    Alcotest.test_case "vs invariant: packet loss" `Quick test_vs_invariant_with_loss;
    Alcotest.test_case "vs invariant: member crash (8 seeds)" `Quick test_vs_invariant_with_crash;
    Alcotest.test_case "vs invariant: crash + loss (4 seeds)" `Quick test_vs_invariant_crash_and_loss;
    Alcotest.test_case "causal chain under loss (6 seeds)" `Quick test_causal_chain_under_loss;
    Alcotest.test_case "flush guarantee" `Quick test_flush_guarantee;
    Alcotest.test_case "flush released by a view install" `Quick test_flush_released_by_install;
    Alcotest.test_case "partition stalls then heals" `Quick test_partition_stalls_then_heals;
    Alcotest.test_case "no protocol-state leaks" `Quick test_no_state_leaks;
  ]
