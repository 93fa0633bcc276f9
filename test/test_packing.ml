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
  ]
