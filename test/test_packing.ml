(* CBCAST send packing: CBCASTs queued back to back at one site into one
   group leave in the same instant and share one packet per
   destination; anything else queued between them keeps its place in
   the site's send order; packing stays off where it cannot save a
   receive dispatch; and a crash forgets whatever was held. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event
module Metrics = Vsync_obs.Metrics

let e_app = Entry.user 0
let e_rpc = Entry.user 1

let msg tag =
  let m = Message.create () in
  Message.set_int m "tag" tag;
  m

let tag_of m = Option.value ~default:(-1) (Message.get_int m "tag")

(* Three sites, one member each, group formed; [log.(s)] collects the
   tags member [s] delivers, in order. *)
let setup ?config ?(body = 0) () =
  let w = World.create ?runtime_config:config ~seed:0x9ACL ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let log = Array.make 3 [] in
  Array.iteri
    (fun s m -> Runtime.bind m e_app (fun x -> log.(s) <- tag_of x :: log.(s)))
    members;
  let gid = Test_flowctl.form_group w members in
  let send p mode tag =
    let m = msg tag in
    if body > 0 then Message.set_bytes m "pad" (Bytes.make body 'x');
    ignore (Runtime.bcast p mode ~dest:(Addr.Group gid) ~entry:e_app m ~want:Types.No_reply)
  in
  (w, members, gid, log, send)

(* Typed protocol and transport events from now on. *)
let capture w =
  let tr = Vsync_sim.Trace.obs (World.trace w) in
  let evs = ref [] in
  Tracer.set_classes tr [ Event.Transport; Event.Proto ];
  Tracer.add_sink tr (fun r -> evs := r :: !evs);
  Tracer.set_enabled tr true;
  fun () -> List.rev !evs

(* Virtual times at which site 0 originated a multicast of [proto]. *)
let originations evs proto =
  List.filter_map
    (fun { Event.at; ev } ->
      match ev with
      | Event.Originate { site = 0; proto = p; _ } when String.equal p proto -> Some at
      | _ -> None)
    evs

(* Instants at which site 0 put CBCAST data on the wire toward [dst]:
   small frames staged in one instant leave in one packet. *)
let cb_instants evs ~dst =
  List.sort_uniq compare
    (List.filter_map
       (fun { Event.at; ev } ->
         match ev with
         | Event.Frame_tx { site = 0; dst = d; kind = "cb_data"; _ } when d = dst -> Some at
         | _ -> None)
       evs)

let packets_at evs ~at ~dst =
  List.length
    (List.filter
       (fun { Event.at = a; ev } ->
         match ev with
         | Event.Packet_send { site = 0; dst = d; _ } -> a = at && d = dst
         | _ -> false)
       evs)

let held w site =
  Option.value ~default:(-1)
    (Metrics.read_int (Runtime.metrics (World.runtime w site)) "runtime.cb_held")

let test_queued_pair_shares_packets () =
  let w, members, _, log, send = setup () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      send members.(0) Types.Cbcast 1;
      send members.(0) Types.Cbcast 2);
  World.run_for w 2_000_000;
  let evs = events () in
  Alcotest.(check int) "the first was held for the second" 1 (held w 0);
  (match originations evs "cbcast" with
  | [ a; b ] -> Alcotest.(check int) "both originate in one instant" a b
  | l -> Alcotest.failf "expected two CBCAST originations, got %d" (List.length l));
  for dst = 1 to 2 do
    match cb_instants evs ~dst with
    | [ at ] ->
      Alcotest.(check int)
        (Printf.sprintf "one packet to site %d carries both" dst)
        1 (packets_at evs ~at ~dst)
    | l -> Alcotest.failf "site %d: CBCAST data left in %d instants" dst (List.length l)
  done;
  Array.iteri
    (fun s l -> Alcotest.(check (list int)) (Printf.sprintf "site %d: FIFO" s) [ 1; 2 ] (List.rev l))
    log

let test_lone_cbcast_never_held () =
  (* Sends spaced wider than their CPU job are each alone on the send
     queue: each leaves at the end of its own job, as before packing. *)
  let w, members, _, log, send = setup () in
  let events = capture w in
  let t0 = ref 0 in
  World.run_task w members.(0) (fun () ->
      t0 := World.now w;
      send members.(0) Types.Cbcast 1;
      Runtime.sleep members.(0) 100_000;
      send members.(0) Types.Cbcast 2);
  World.run_for w 2_000_000;
  let evs = events () in
  Alcotest.(check int) "nothing held" 0 (held w 0);
  let cfg = Runtime.default_config in
  (match originations evs "cbcast" with
  | [ a; b ] ->
    Alcotest.(check bool) "first leaves after one send job, no later" true
      (a - !t0 >= cfg.Runtime.cpu_send_us && a - !t0 < cfg.Runtime.cpu_send_us + 1_000);
    Alcotest.(check bool) "second leaves on its own" true (b >= a + 100_000)
  | l -> Alcotest.failf "expected two CBCAST originations, got %d" (List.length l));
  Array.iteri
    (fun s l -> Alcotest.(check (list int)) (Printf.sprintf "site %d: FIFO" s) [ 1; 2 ] (List.rev l))
    log

let test_abcast_keeps_call_order () =
  (* CB, CB, AB queued back to back: the first CBCAST is held for the
     second, the ABCAST job releases nothing out of order. *)
  let w, members, _, log, send = setup () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      send members.(0) Types.Cbcast 1;
      send members.(0) Types.Cbcast 2;
      send members.(0) Types.Abcast 3);
  World.run_for w 2_000_000;
  let evs = events () in
  let order =
    List.filter_map
      (fun { Event.ev; _ } ->
        match ev with Event.Originate { site = 0; proto; _ } -> Some proto | _ -> None)
      evs
  in
  Alcotest.(check (list string)) "originated in call order" [ "cbcast"; "cbcast"; "abcast" ] order;
  (match originations evs "cbcast", originations evs "abcast" with
  | [ a; b ], [ c ] ->
    Alcotest.(check int) "the CBCAST pair left together" a b;
    Alcotest.(check bool) "the ABCAST after its own job" true (c > b)
  | _ -> Alcotest.fail "missing originations");
  Array.iteri
    (fun s l ->
      Alcotest.(check (list int)) (Printf.sprintf "site %d: all delivered" s) [ 1; 2; 3 ]
        (List.sort compare l))
    log

let test_reply_keeps_call_order () =
  (* The responder at site 0 multicasts two CBCASTs, then replies to
     the caller at site 1: over the FIFO channel to site 1 both
     CBCASTs must arrive, and be delivered, before the reply. *)
  let w, members, _, _, send = setup () in
  let seen = ref [] in
  Runtime.bind members.(1) e_app (fun x -> seen := Printf.sprintf "cb%d" (tag_of x) :: !seen);
  Runtime.bind members.(0) e_rpc (fun req ->
      send members.(0) Types.Cbcast 1;
      send members.(0) Types.Cbcast 2;
      Runtime.reply members.(0) ~request:req (Message.create ()));
  World.run_task w members.(1) (fun () ->
      match
        Runtime.bcast members.(1) Types.Cbcast
          ~dest:(Addr.Proc (Runtime.proc_addr members.(0)))
          ~entry:e_rpc (Message.create ()) ~want:(Types.Wait_n 1)
      with
      | Runtime.Replies [ _ ] -> seen := "reply" :: !seen
      | _ -> seen := "no reply" :: !seen);
  World.run_for w 2_000_000;
  Alcotest.(check int) "the first CBCAST was held" 1 (held w 0);
  Alcotest.(check (list string)) "CBCASTs before the reply" [ "cb1"; "cb2"; "reply" ]
    (List.rev !seen)

let test_packed_bytes_capped () =
  (* 1 KB bodies: a run of ten queued CBCASTs leaves in batches that fit
     one packet each, never one ten-message burst. *)
  let w, members, _, log, send = setup ~body:1000 () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      for tag = 1 to 10 do
        send members.(0) Types.Cbcast tag
      done);
  World.run_for w 3_000_000;
  let evs = events () in
  let times = originations evs "cbcast" in
  Alcotest.(check int) "ten originations" 10 (List.length times);
  let batches = List.sort_uniq compare times in
  let largest =
    List.fold_left
      (fun acc at -> max acc (List.length (List.filter (( = ) at) times)))
      0 batches
  in
  Alcotest.(check bool) (Printf.sprintf "largest batch %d fits a 4 KB packet" largest) true
    (largest >= 2 && largest <= 4);
  Array.iteri
    (fun s l ->
      Alcotest.(check (list int)) (Printf.sprintf "site %d: FIFO" s) (List.init 10 succ) (List.rev l))
    log

let test_no_recv_cost_unpacked () =
  (* With no per-packet receive cost, packing cannot save a receive
     dispatch: each CBCAST leaves at the end of its own job, exactly as
     before. *)
  let config = { Runtime.default_config with Runtime.cpu_recv_us = 0 } in
  let w, members, _, log, send = setup ~config () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      send members.(0) Types.Cbcast 1;
      send members.(0) Types.Cbcast 2);
  World.run_for w 2_000_000;
  let evs = events () in
  Alcotest.(check int) "nothing held" 0 (held w 0);
  (match originations evs "cbcast" with
  | [ a; b ] -> Alcotest.(check bool) "each at the end of its own job" true (b > a)
  | l -> Alcotest.failf "expected two CBCAST originations, got %d" (List.length l));
  for dst = 1 to 2 do
    let instants = cb_instants evs ~dst in
    Alcotest.(check int) (Printf.sprintf "two sends toward site %d" dst) 2 (List.length instants);
    List.iter
      (fun at ->
        Alcotest.(check int) (Printf.sprintf "one packet per CBCAST to site %d" dst) 1
          (packets_at evs ~at ~dst))
      instants
  done;
  Array.iteri
    (fun s l -> Alcotest.(check (list int)) (Printf.sprintf "site %d: FIFO" s) [ 1; 2 ] (List.rev l))
    log

let test_crash_forgets_held () =
  (* Three CBCASTs queued; the site crashes once the first is held and
     restarts at once, well inside the old incarnation's CPU backlog.
     Neither the held origination nor the jobs still queued may
     originate anything under the new incarnation, not even when a
     fresh process there sends and so would release whatever is
     held. *)
  let w, members, _, log, send = setup () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      for tag = 1 to 3 do
        send members.(0) Types.Cbcast tag
      done);
  let rt = World.runtime w 0 in
  let first_held () = held w 0 >= 1 in
  if not (World.run_cond ~slice_us:100 ~timeout_us:50_000 w first_held) then
    Alcotest.fail "first CBCAST never held";
  let crashed_at = World.now w in
  World.crash_site w 0;
  World.restart_site w 0;
  Alcotest.(check bool) "restarted" true (Runtime.alive rt);
  let fresh = World.proc w ~site:0 ~name:"fresh" in
  World.run_task w fresh (fun () ->
      ignore
        (Runtime.bcast fresh Types.Cbcast
           ~dest:(Addr.Proc (Runtime.proc_addr members.(1)))
           ~entry:e_rpc (Message.create ()) ~want:Types.No_reply));
  World.run_for w 2_000_000;
  let evs = events () in
  Alcotest.(check (list int)) "no origination after the crash" []
    (List.filter (fun at -> at >= crashed_at) (originations evs "cbcast"));
  Alcotest.(check (list int)) "survivors delivered none of them" [] (log.(1) @ log.(2))

(* [Frame_tx] events of [kind] sent from [site] to [dst]. *)
let frames_tx evs ~kind ~site ~dst =
  List.length
    (List.filter
       (fun { Event.ev; _ } ->
         match ev with
         | Event.Frame_tx { site = s; dst = d; kind = k; _ } ->
           s = site && d = dst && String.equal k kind
         | _ -> false)
       evs)

let check_drained w =
  let sum = Test_gc.sum_gauge w in
  Alcotest.(check int) "unstables drain" 0 (sum Runtime.pending_unstable);
  Alcotest.(check int) "store drains" 0 (sum Runtime.pending_store);
  Alcotest.(check int) "dedup residue drains" 0 (sum Runtime.dedup_residue)

let test_run_acked_once () =
  (* Four CBCASTs queued back to back leave as one run: only the last
     carries the ack flag, so each receiver acknowledges the run once
     and site 0 declares it stable once per destination.  A lone
     CBCAST afterwards still gets its own pair. *)
  let w, members, _, log, send = setup () in
  let events = capture w in
  World.run_task w members.(0) (fun () ->
      for tag = 1 to 4 do
        send members.(0) Types.Cbcast tag
      done);
  World.run_for w 2_000_000;
  Alcotest.(check int) "three held for the fourth" 3 (held w 0);
  let pairs evs =
    List.map
      (fun s ->
        ( frames_tx evs ~kind:"deliver_ack" ~site:s ~dst:0,
          frames_tx evs ~kind:"stable" ~site:0 ~dst:s ))
      [ 1; 2 ]
  in
  Alcotest.(check (list (pair int int))) "one Deliver_ack and one Stable per destination"
    [ (1, 1); (1, 1) ] (pairs (events ()));
  check_drained w;
  World.run_task w members.(0) (fun () -> send members.(0) Types.Cbcast 5);
  World.run_for w 2_000_000;
  Alcotest.(check int) "the lone CBCAST was not held" 3 (held w 0);
  Alcotest.(check (list (pair int int))) "a lone CBCAST gets its own pair" [ (2, 2); (2, 2) ]
    (pairs (events ()));
  check_drained w;
  Array.iteri
    (fun s l ->
      Alcotest.(check (list int)) (Printf.sprintf "site %d: FIFO" s) [ 1; 2; 3; 4; 5 ] (List.rev l))
    log

let stability_frames w site =
  Option.value ~default:(-1)
    (Metrics.read_int (Runtime.metrics (World.runtime w site)) "runtime.stability_frames")

let test_burst_acked_once () =
  (* Nine ABCASTs queued back to back at site 0: the first leaves at
     once, and the other eight queue behind its round and leave as one
     half-window burst.  Only the burst's last round carries the ack
     flag, so each member acknowledges the burst once and site 0
     declares it stable once per destination: with the lone round's
     own pair, two of each instead of nine. *)
  let w, members, _, log, send = setup () in
  let events = capture w in
  let sent () = List.map (stability_frames w) [ 0; 1; 2 ] in
  let before = sent () in
  World.run_task w members.(0) (fun () ->
      for tag = 1 to 9 do
        send members.(0) Types.Abcast tag
      done);
  World.run_for w 3_000_000;
  let evs = events () in
  let times = originations evs "abcast" in
  Alcotest.(check (list int)) "a lone round, then a burst of eight" [ 1; 8 ]
    (List.map (fun at -> List.length (List.filter (( = ) at) times)) (List.sort_uniq compare times));
  Alcotest.(check (list (pair int int))) "two Deliver_acks and two Stables per destination"
    [ (2, 2); (2, 2) ]
    (List.map
       (fun s ->
         (frames_tx evs ~kind:"deliver_ack" ~site:s ~dst:0, frames_tx evs ~kind:"stable" ~site:0 ~dst:s))
       [ 1; 2 ]);
  Alcotest.(check (list int)) "runtime.stability_frames counts them" [ 4; 2; 2 ]
    (List.map2 ( - ) (sent ()) before);
  Alcotest.(check (list int)) "all nine delivered" (List.init 9 succ) (List.sort compare log.(0));
  Array.iteri
    (fun s l -> Alcotest.(check (list int)) (Printf.sprintf "site %d: the same total order" s) log.(0) l)
    log;
  check_drained w

let test_run_last_sender_dies () =
  (* Site 0 hosts [a] and [b]; [b]'s CBCAST is the last of a held run.
     [b] dies while the run is held, which starts the view change that
     fails it.  Its frames reach site 0's FIFO CPU behind the held jobs,
     so the release comes first and [b]'s CBCAST still originates, with
     the run's flag.  (The case where the last held send originates
     nothing cannot be built under the FIFO CPU model; DESIGN.md §4.6.)
     [a]'s CBCASTs must stabilise, and [a]'s [flush] waits for exactly
     that. *)
  let w = World.create ~seed:0x9ACL ~sites:3 () in
  let a = World.proc w ~site:0 ~name:"a" and b = World.proc w ~site:0 ~name:"b" in
  let members = [| a; b; World.proc w ~site:1 ~name:"c"; World.proc w ~site:2 ~name:"d" |] in
  let log = Array.make 4 [] in
  Array.iteri (fun i m -> Runtime.bind m e_app (fun x -> log.(i) <- tag_of x :: log.(i))) members;
  let gid = Test_flowctl.form_group w members in
  let send p tag =
    ignore
      (Runtime.bcast p Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app (msg tag)
         ~want:Types.No_reply)
  in
  World.run_task w a (fun () ->
      for tag = 1 to 3 do
        send a tag
      done;
      Runtime.spawn_task b (fun () -> send b 4));
  if not (World.run_cond ~slice_us:100 ~timeout_us:50_000 w (fun () -> held w 0 >= 1)) then
    Alcotest.fail "first CBCAST never held";
  Runtime.kill_proc b;
  let flushed = ref false in
  World.run_task w a (fun () ->
      Runtime.flush a;
      flushed := true);
  World.run_for w 3_000_000;
  Alcotest.(check bool) "a's flush returned" true !flushed;
  Alcotest.(check bool) "b was removed" false
    (List.exists (Addr.equal_proc (Runtime.proc_addr b))
       (Option.get (Runtime.pg_view a gid)).View.members);
  List.iter
    (fun i ->
      Alcotest.(check (list int)) (Printf.sprintf "member %d got a's run" i) [ 1; 2; 3 ]
        (List.filter (fun x -> x <= 3) (List.rev log.(i))))
    [ 0; 2; 3 ];
  check_drained w

let test_packed_runs_oracle_clean () =
  (* The nemesis scenario's traffic at a 10 ms mean gap, under 6 ms of
     CPU per send, queues sends back to back, so CBCASTs leave in
     packed runs (at the default 150 ms gap none ever does).  With no
     faults the oracle must pass, hygiene included, and every member
     must deliver every send. *)
  List.iter
    (fun seed ->
      match Scenario.run ~plan:[] ~sites:3 ~send_interval_us:10_000 ~seed () with
      | Error e -> Alcotest.failf "seed %Ld: setup failed: %s" seed e
      | Ok r ->
        let name what = Printf.sprintf "seed %Ld: %s" seed what in
        Alcotest.(check (list string)) (name "oracle PASS") []
          (List.map (fun (v : Oracle.violation) -> v.Oracle.invariant) r.Scenario.violations);
        Alcotest.(check bool) (name "CBCASTs were held") true
          (List.fold_left (fun acc s -> acc + held r.Scenario.world s) 0 [ 0; 1; 2 ] > 0);
        Alcotest.(check int) (name "every member delivered every send") (3 * r.Scenario.sent)
          r.Scenario.delivered)
    [ 1L; 2L; 3L ]

let test_bursts_oracle_clean () =
  (* The nemesis scenario's traffic, with no faults, at a 20 ms mean gap:
     ABCASTs queue behind rounds in flight and leave in bursts that
     are acknowledged once.  The oracle must pass, hygiene included,
     and every member must deliver every send. *)
  List.iter
    (fun seed ->
      let bursts = Hashtbl.create 64 in
      let trace_sink { Event.at; ev } =
        match ev with
        | Event.Originate { site; proto = "abcast"; _ } ->
          Hashtbl.replace bursts (site, at) (1 + Option.value ~default:0 (Hashtbl.find_opt bursts (site, at)))
        | _ -> ()
      in
      match Scenario.run ~plan:[] ~sites:3 ~send_interval_us:20_000 ~trace_sink ~seed () with
      | Error e -> Alcotest.failf "seed %Ld: setup failed: %s" seed e
      | Ok r ->
        let name what = Printf.sprintf "seed %Ld: %s" seed what in
        Alcotest.(check (list string)) (name "oracle PASS") []
          (List.map (fun (v : Oracle.violation) -> v.Oracle.invariant) r.Scenario.violations);
        Alcotest.(check bool) (name "ABCASTs left in bursts") true
          (Hashtbl.fold (fun _ n acc -> acc || n > 1) bursts false);
        Alcotest.(check int) (name "every member delivered every send") (3 * r.Scenario.sent)
          r.Scenario.delivered)
    [ 1L; 2L; 3L ]

let test_forked_lineage_not_delivered () =
  (* Seed 2448 at 3 sites and a 10 ms send gap: after a partition
     heals, two components install different views under one view id
     (the dueling-coordinator fork, DESIGN.md §4.4.3), while CBCASTs
     leave in packed runs.  A site must not deliver the other
     component's CBCASTs against its own view's clocks, or it breaks
     the order the cumulative acknowledgement relies on: then site 2
     delivered them out of FIFO order and after seeing their sender
     fail, and p0 missed messages a run's single acknowledgement had
     settled.  The fork itself still fails the oracle; nothing
     downstream of it may. *)
  match Scenario.run ~sites:3 ~send_interval_us:10_000 ~seed:2448L () with
  | Error e -> Alcotest.failf "setup failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "CBCASTs were held" true
      (List.fold_left (fun acc s -> acc + held r.Scenario.world s) 0 [ 0; 1; 2 ] > 0);
    let fork = [ "no-split-brain"; "view-consistency" ] in
    Alcotest.(check (list string)) "no violation but the fork's own" []
      (List.filter_map
         (fun (v : Oracle.violation) ->
           if List.mem v.Oracle.invariant fork then None else Some v.Oracle.invariant)
         r.Scenario.violations)

let suite =
  [
    Alcotest.test_case "queued pair shares one packet per destination" `Quick
      test_queued_pair_shares_packets;
    Alcotest.test_case "lone CBCAST never held" `Quick test_lone_cbcast_never_held;
    Alcotest.test_case "ABCAST after CBCASTs keeps call order" `Quick test_abcast_keeps_call_order;
    Alcotest.test_case "reply after CBCASTs keeps call order" `Quick test_reply_keeps_call_order;
    Alcotest.test_case "held bytes capped at one packet" `Quick test_packed_bytes_capped;
    Alcotest.test_case "no receive cost: unpacked" `Quick test_no_recv_cost_unpacked;
    Alcotest.test_case "crash forgets held CBCASTs" `Quick test_crash_forgets_held;
    Alcotest.test_case "a packed run costs one ack pair" `Quick test_run_acked_once;
    Alcotest.test_case "an ABCAST burst costs one ack pair" `Quick test_burst_acked_once;
    Alcotest.test_case "held run's last sender dies" `Quick test_run_last_sender_dies;
    Alcotest.test_case "packed runs under the oracle (3 seeds)" `Slow test_packed_runs_oracle_clean;
    Alcotest.test_case "ABCAST bursts under the oracle (3 seeds)" `Slow test_bursts_oracle_clean;
    Alcotest.test_case "a forked lineage's CBCASTs are not delivered" `Slow
      test_forked_lineage_not_delivered;
  ]
