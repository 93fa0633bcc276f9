(* Unit tests for the reliable transport: FIFO exactly-once delivery,
   loss recovery, fragmentation, incarnation handling, and the adaptive
   failure detector. *)

module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net
module Endpoint = Vsync_transport.Endpoint
module Rtt = Vsync_transport.Rtt

type payload = { tag : int; size : int }

let setup ?(sites = 2) ?(loss = 0.0) ?(seed = 1L) () =
  let e = Engine.create ~seed () in
  let n = Net.create e { Net.default_config with Net.loss_probability = loss } ~sites in
  let fab = Endpoint.fabric (Net.backend n) in
  let eps =
    Array.init sites (fun site -> Endpoint.create fab ~site ~size:(fun p -> p.size))
  in
  (e, n, eps)

let collect ep =
  let log = ref [] in
  Endpoint.set_receiver ep (fun ~src ps -> List.iter (fun p -> log := (src, p.tag) :: !log) ps);
  log

let sink ep = Endpoint.set_receiver ep (fun ~src:_ _ -> ())

let test_fifo_delivery () =
  let e, _n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  for tag = 1 to 10 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Engine.run ~until:1_000_000 e;
  Alcotest.(check (list (pair int int)))
    "in order, exactly once"
    (List.init 10 (fun i -> (0, i + 1)))
    (List.rev !log)

let test_loss_recovery () =
  (* 30% packet loss: retransmission must still deliver everything in
     order, exactly once. *)
  let e, _n, eps = setup ~loss:0.3 ~seed:77L () in
  let log = collect eps.(1) in
  sink eps.(0);
  for tag = 1 to 50 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 200 }
  done;
  Engine.run ~until:120_000_000 e;
  Alcotest.(check (list (pair int int)))
    "all delivered despite loss"
    (List.init 50 (fun i -> (0, i + 1)))
    (List.rev !log);
  Alcotest.(check bool) "retransmissions happened" true (Endpoint.retransmits eps.(0) > 0)

let test_fragmentation () =
  let e, _n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 20_000 };
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 10 };
  Engine.run ~until:5_000_000 e;
  Alcotest.(check (list (pair int int))) "large then small, in order" [ (0, 1); (0, 2) ]
    (List.rev !log);
  Alcotest.(check bool) "large message used several frames" true (Endpoint.frames_sent eps.(0) >= 6)

let test_retransmit_exhaustion_fails_channel () =
  (* A long black-hole exhausts the retry budget.  The old behaviour was
     to silently stop retransmitting, leaving the receiver waiting
     forever on the sequence gap; now the whole channel must fail
     loudly, and post-heal traffic must restart cleanly under a new
     channel generation. *)
  let e, n, eps = setup ~seed:11L () in
  let log = collect eps.(1) in
  sink eps.(0);
  let failed = ref [] in
  Endpoint.set_failure_handler eps.(0) (fun s -> failed := s :: !failed);
  (* A clean prefix, then a partition swallowing two sends entirely. *)
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Engine.run ~until:1_000_000 e;
  Net.partition n [ 0 ] [ 1 ];
  Endpoint.send eps.(0) ~dst:1 { tag = 3; size = 100 };
  Endpoint.send eps.(0) ~dst:1 { tag = 4; size = 100 };
  Engine.run ~until:120_000_000 e;
  Alcotest.(check (list int)) "channel failure surfaced exactly once" [ 1 ] !failed;
  Alcotest.(check int) "failure counted" 1 (Endpoint.channel_failures eps.(0));
  (* Heal: later sends open a fresh generation and flow normally.  The
     swallowed messages are gone — that loss was reported, not silent. *)
  Net.heal n;
  Endpoint.send eps.(0) ~dst:1 { tag = 5; size = 100 };
  Endpoint.send eps.(0) ~dst:1 { tag = 6; size = 100 };
  Engine.run ~until:(Engine.now e + 10_000_000) e;
  Alcotest.(check (list (pair int int)))
    "in-order exactly-once within each generation"
    [ (0, 1); (0, 2); (0, 5); (0, 6) ]
    (List.rev !log)

let test_duplicated_fragments () =
  (* The per-link adversary echoes every packet.  Reassembly must not
     double-deliver, and a duplicated fragment of a large message must
     not corrupt the partially-reassembled payload. *)
  let e, n, eps = setup ~seed:9L () in
  let log = collect eps.(1) in
  sink eps.(0);
  Net.set_link_dup n ~src:0 ~dst:1 1.0;
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 20_000 };
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Engine.run ~until:30_000_000 e;
  Alcotest.(check (list (pair int int)))
    "exactly once despite duplication" [ (0, 1); (0, 2) ] (List.rev !log);
  Alcotest.(check bool) "the adversary actually duplicated" true (Net.packets_duplicated n > 0)

let test_reordered_fragments () =
  (* Reordering detours must be absorbed by sequencing: delivery order
     is still the send order. *)
  let e, n, eps = setup ~seed:21L () in
  let log = collect eps.(1) in
  sink eps.(0);
  Net.set_link_reorder n ~src:0 ~dst:1 0.5;
  for tag = 1 to 20 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 300 }
  done;
  Engine.run ~until:120_000_000 e;
  Alcotest.(check (list (pair int int)))
    "send order preserved through reordering"
    (List.init 20 (fun i -> (0, i + 1)))
    (List.rev !log);
  Alcotest.(check bool) "the adversary actually reordered" true (Net.packets_reordered n > 0)

let test_crash_silences () =
  let e, n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.crash eps.(0);
  Net.crash_site n 0;
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 10 };
  Engine.run ~until:1_000_000 e;
  Alcotest.(check (list (pair int int))) "dead endpoint sends nothing" [] !log

let test_restart_new_incarnation () =
  let e, n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 10 };
  Engine.run ~until:1_000_000 e;
  (* Crash and restart the sender: its epoch bumps, and the receiver
     resets channel state so fresh sequence numbers still deliver. *)
  Endpoint.crash eps.(0);
  Net.crash_site n 0;
  Engine.run ~until:(Engine.now e + 1_000_000) e;
  Net.restart_site n 0;
  Endpoint.restart eps.(0);
  Alcotest.(check int) "epoch bumped" 2 (Endpoint.epoch eps.(0));
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 10 };
  Engine.run ~until:(Engine.now e + 2_000_000) e;
  Alcotest.(check (list (pair int int))) "both incarnations' sends arrived" [ (0, 1); (0, 2) ]
    (List.rev !log)

let test_peer_restart_drops_staged_frames () =
  (* Site 1 crashes and restarts; its first packet (sent the instant it
     comes back) reaches site 0 at the very instant site 0 stages tag 4,
     the send scheduled ahead of the arrival.  Tag 4 was staged for the
     dead incarnation on its channel, as seq 3: the restart must drop
     it with the rest of that channel, or it reaches the new
     incarnation's fresh channel and later stands in for the new seq 3
     — delivered out of FIFO order, and the real seq 3 (tag 8)
     acknowledged but never delivered. *)
  let e, n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  for tag = 1 to 3 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Engine.run ~until:2_000_000 e;
  Endpoint.crash eps.(1);
  Net.crash_site n 1;
  Net.restart_site n 1;
  Endpoint.restart eps.(1);
  log := [];
  let t0 = Engine.now e in
  Endpoint.send eps.(1) ~dst:0 { tag = 0; size = 10 };
  (* Its packet arrives after 78 µs on the wire (10 B of payload, a
     24 B frame header and 64 B of packet overhead at 1.25 MB/s) and
     the link's 16 ms latency. *)
  let arrival = t0 + 78 + 16_000 in
  ignore
    (Engine.schedule_at e arrival (fun () ->
         Endpoint.send eps.(0) ~dst:1 { tag = 4; size = 100 }));
  Engine.run ~until:(arrival + 1_000) e;
  for tag = 5 to 8 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Engine.run ~until:(Engine.now e + 5_000_000) e;
  Alcotest.(check (list int)) "new incarnation gets the post-restart sends in order" [ 5; 6; 7; 8 ]
    (List.rev_map snd !log)

let test_failure_detector_detects_crash () =
  let e, n, eps = setup () in
  ignore (collect eps.(1));
  sink eps.(0);
  let failed = ref [] in
  Endpoint.set_failure_handler eps.(0) (fun s -> failed := s :: !failed);
  Endpoint.monitor eps.(0) ~site:1;
  (* Let a few pings succeed, then kill the peer. *)
  Engine.run ~until:2_000_000 e;
  Alcotest.(check (list int)) "no false positive while alive" [] !failed;
  Alcotest.(check bool) "rtt estimated" true (Endpoint.rtt_us eps.(0) ~site:1 <> None);
  Endpoint.crash eps.(1);
  Net.crash_site n 1;
  Engine.run ~until:(Engine.now e + 30_000_000) e;
  Alcotest.(check (list int)) "crash detected exactly once" [ 1 ] !failed

let test_failure_detector_unmonitor () =
  let e, n, eps = setup () in
  ignore (collect eps.(1));
  sink eps.(0);
  let failed = ref [] in
  Endpoint.set_failure_handler eps.(0) (fun s -> failed := s :: !failed);
  Endpoint.monitor eps.(0) ~site:1;
  Engine.run ~until:2_000_000 e;
  Endpoint.unmonitor eps.(0) ~site:1;
  Endpoint.crash eps.(1);
  Net.crash_site n 1;
  Engine.run ~until:(Engine.now e + 30_000_000) e;
  Alcotest.(check (list int)) "no report after unmonitor" [] !failed

let test_rtt_estimator () =
  let r = Rtt.create () in
  Alcotest.(check int) "no samples yet" 0 (Rtt.samples r);
  Rtt.observe r 32_000;
  Alcotest.(check int) "first sample adopted" 32_000 (Rtt.srtt_us r);
  for _ = 1 to 50 do
    Rtt.observe r 32_000
  done;
  Alcotest.(check bool) "estimate converges" true (abs (Rtt.srtt_us r - 32_000) < 500);
  let before = Rtt.timeout_us r in
  Rtt.backoff r;
  Rtt.backoff r;
  Alcotest.(check bool) "backoff raises timeout" true (Rtt.timeout_us r >= 2 * before);
  Rtt.observe r 32_000;
  Alcotest.(check bool) "sample resets backoff" true (Rtt.timeout_us r <= before * 2)

let test_coalescing_packs_frames () =
  let e, _n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  (* 40 sends from one engine event: the staging queue must pack them
     into a handful of shared packets, each within the network's 4 KB
     packet bound — Net.send raises on oversize, so the bound is
     enforced by construction, not sampled. *)
  for tag = 1 to 40 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 200 }
  done;
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int)))
    "in order, exactly once"
    (List.init 40 (fun i -> (0, i + 1)))
    (List.rev !log);
  let frames = Endpoint.frames_sent eps.(0) and packets = Endpoint.packets_sent eps.(0) in
  Alcotest.(check int) "one frame per message" 40 frames;
  Alcotest.(check bool) "burst coalesced into fewer packets" true (packets < frames);
  Alcotest.(check bool) "the 4 KB bound forced several packets" true (packets >= 2);
  (* Delayed acks fold the 40 deliveries into at most one dedicated ack
     per arriving packet. *)
  Alcotest.(check bool) "acks collapsed by the delay timer" true
    (Endpoint.acks_sent eps.(1) <= packets)

let test_piggybacked_acks_suppress_dedicated () =
  (* Echo traffic: the receiver answers every payload within the ack
     delay, so its cumulative acks ride the reverse data frames and the
     dedicated ack frame is never needed in that direction. *)
  let e, _n, eps = setup () in
  let got = ref 0 and back = ref 0 in
  Endpoint.set_receiver eps.(1) (fun ~src:_ ps ->
      List.iter
        (fun p ->
          incr got;
          Endpoint.send eps.(1) ~dst:0 { tag = 1000 + p.tag; size = 100 })
        ps);
  Endpoint.set_receiver eps.(0) (fun ~src:_ ps -> back := !back + List.length ps);
  for tag = 1 to 30 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Engine.run ~until:10_000_000 e;
  Alcotest.(check int) "all forward messages delivered" 30 !got;
  Alcotest.(check int) "all echoes delivered" 30 !back;
  Alcotest.(check int) "echo direction needed no dedicated acks" 0 (Endpoint.acks_sent eps.(1))

let test_duplicate_reack_quiesces_sender () =
  (* The ack direction is black-holed: the receiver delivers but the
     sender keeps retransmitting.  After the heal, the re-ack triggered
     by a duplicate [seq] must quiesce the sender for good. *)
  let e, n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  Net.set_link_loss n ~src:1 ~dst:0 1.0;
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  Engine.run ~until:2_000_000 e;
  Alcotest.(check (list (pair int int))) "delivered despite lost acks" [ (0, 1) ] (List.rev !log);
  Alcotest.(check bool) "sender retransmitted" true (Endpoint.retransmits eps.(0) > 0);
  Net.clear_link n ~src:1 ~dst:0;
  Engine.run ~until:(Engine.now e + 5_000_000) e;
  let settled = Endpoint.retransmits eps.(0) in
  Engine.run ~until:(Engine.now e + 30_000_000) e;
  Alcotest.(check int) "re-ack stopped the retransmissions" settled (Endpoint.retransmits eps.(0));
  Alcotest.(check (list (pair int int))) "still exactly once" [ (0, 1) ] (List.rev !log)

let test_karn_ignores_ambiguous_rtt () =
  (* Karn's algorithm: an ack that may answer a retransmission — or a
     fresh message queued behind one — must not train the RTT
     estimator; the next unambiguous exchange must. *)
  let e, n, eps = setup () in
  ignore (collect eps.(1));
  sink eps.(0);
  Net.set_link_loss n ~src:1 ~dst:0 1.0;
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  (* Let the retransmission timer fire at least once. *)
  Engine.run ~until:200_000 e;
  Alcotest.(check bool) "head was retransmitted" true (Endpoint.retransmits eps.(0) > 0);
  (* A fresh message now rides behind the retransmitted head. *)
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Net.clear_link n ~src:1 ~dst:0;
  Engine.run ~until:(Engine.now e + 5_000_000) e;
  (match Endpoint.out_rtt_stats eps.(0) ~dst:1 with
  | Some (samples, _) -> Alcotest.(check int) "ambiguous cumulative ack sampled nothing" 0 samples
  | None -> Alcotest.fail "outbound channel disappeared");
  Endpoint.send eps.(0) ~dst:1 { tag = 3; size = 100 };
  Engine.run ~until:(Engine.now e + 5_000_000) e;
  match Endpoint.out_rtt_stats eps.(0) ~dst:1 with
  | Some (samples, srtt) ->
    Alcotest.(check int) "clean exchange sampled exactly once" 1 samples;
    Alcotest.(check bool) "estimate reflects the real rtt, not the initial guess" true
      (srtt < 50_000)
  | None -> Alcotest.fail "outbound channel disappeared"

let test_steady_stream_never_retransmits () =
  (* A message every 5 ms for 2 s over a lossless 16 ms link: the
     window never empties, so only restarting the retransmission timer
     on every cumulative ack (RFC 6298 §5.3) keeps a timer armed for a
     long-acked message from firing and resending the window. *)
  let e, _n, eps = setup () in
  let log = collect eps.(1) in
  sink eps.(0);
  let n = 400 in
  for tag = 1 to n do
    ignore
      (Engine.schedule e ~delay:(tag * 5_000) (fun () ->
           Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }))
  done;
  Engine.run ~until:5_000_000 e;
  Alcotest.(check int) "all delivered" n (List.length !log);
  Alcotest.(check int) "no retransmissions" 0 (Endpoint.retransmits eps.(0));
  Alcotest.(check int) "window drained" 0 (Endpoint.inflight eps.(0))

let test_rtt_adapts_to_slow_peer () =
  (* An overloaded (slow) site pushes the timeout up rather than being
     declared dead: timeout always exceeds the observed RTT level. *)
  let r = Rtt.create () in
  List.iter (Rtt.observe r) [ 30_000; 35_000; 32_000; 31_000 ];
  let t1 = Rtt.timeout_us r in
  List.iter (Rtt.observe r) [ 150_000; 160_000; 155_000; 150_000; 152_000 ];
  let t2 = Rtt.timeout_us r in
  Alcotest.(check bool) "timeout grew with load" true (t2 > t1);
  Alcotest.(check bool) "timeout above current rtt" true (t2 > 150_000)

let suite =
  [
    Alcotest.test_case "fifo delivery" `Quick test_fifo_delivery;
    Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
    Alcotest.test_case "fragmentation" `Quick test_fragmentation;
    Alcotest.test_case "retransmit exhaustion fails channel" `Quick
      test_retransmit_exhaustion_fails_channel;
    Alcotest.test_case "duplicated fragments" `Quick test_duplicated_fragments;
    Alcotest.test_case "reordered fragments" `Quick test_reordered_fragments;
    Alcotest.test_case "crash silences endpoint" `Quick test_crash_silences;
    Alcotest.test_case "restart new incarnation" `Quick test_restart_new_incarnation;
    Alcotest.test_case "peer restart drops staged frames" `Quick
      test_peer_restart_drops_staged_frames;
    Alcotest.test_case "failure detector detects crash" `Quick test_failure_detector_detects_crash;
    Alcotest.test_case "failure detector unmonitor" `Quick test_failure_detector_unmonitor;
    Alcotest.test_case "coalescing packs frames" `Quick test_coalescing_packs_frames;
    Alcotest.test_case "piggybacked acks suppress dedicated" `Quick
      test_piggybacked_acks_suppress_dedicated;
    Alcotest.test_case "duplicate re-ack quiesces sender" `Quick
      test_duplicate_reack_quiesces_sender;
    Alcotest.test_case "karn ignores ambiguous rtt" `Quick test_karn_ignores_ambiguous_rtt;
    Alcotest.test_case "rtt estimator" `Quick test_rtt_estimator;
    Alcotest.test_case "rtt adapts to slow peer" `Quick test_rtt_adapts_to_slow_peer;
    Alcotest.test_case "steady stream never retransmits" `Quick
      test_steady_stream_never_retransmits;
  ]
