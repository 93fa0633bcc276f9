(* Unit tests for the discrete-event engine and the network model. *)

module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:7 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "stable at equal timestamps" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested events run" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock advanced" 15 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:10 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:100 (fun () -> incr fired));
  Engine.run ~until:50 e;
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check int) "clock at horizon" 50 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest runs later" 2 !fired

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1) (fun () -> ())))

(* --- network --- *)

let test_net_latency () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:2 in
  let arrival = ref (-1) in
  Net.send n ~src:0 ~dst:1 ~bytes:100 (fun () -> arrival := Engine.now e);
  Engine.run e;
  (* 16ms propagation + serialization of 164 wire bytes at 1.25MB/s. *)
  Alcotest.(check bool) "arrives after inter-site latency" true (!arrival >= 16_000);
  Alcotest.(check bool) "arrives promptly" true (!arrival < 17_000)

let test_net_intra_site () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:2 in
  let arrival = ref (-1) in
  Net.send n ~src:1 ~dst:1 ~bytes:4000 (fun () -> arrival := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "intra-site hop is 10us" 10 !arrival

let test_net_fragments () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:2 in
  Alcotest.(check (list int)) "small fits" [ 100 ] (Net.fragments n ~bytes:100);
  Alcotest.(check (list int)) "exactly max" [ 4096 ] (Net.fragments n ~bytes:4096);
  Alcotest.(check (list int)) "10KB -> 3 packets" [ 4096; 4096; 2048 ] (Net.fragments n ~bytes:10240);
  Alcotest.check_raises "oversized send rejected"
    (Invalid_argument "Net.send: packet exceeds max_packet_bytes (fragment first)") (fun () ->
      Net.send n ~src:0 ~dst:1 ~bytes:5000 (fun () -> ()))

let test_net_crash_drops () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:2 in
  let got = ref false in
  Net.send n ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Net.crash_site n 1;
  Engine.run e;
  Alcotest.(check bool) "in-flight packet lost at dead destination" false !got;
  Alcotest.(check int) "counted as lost" 1 (Net.packets_lost n);
  (* A dead source sends nothing. *)
  Net.crash_site n 0;
  Net.send n ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Engine.run e;
  Alcotest.(check bool) "dead source silent" false !got

let test_net_partition () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:4 in
  Net.partition n [ 0; 1 ] [ 2; 3 ];
  let cross = ref false and within = ref false in
  Net.send n ~src:0 ~dst:2 ~bytes:10 (fun () -> cross := true);
  Net.send n ~src:0 ~dst:1 ~bytes:10 (fun () -> within := true);
  Engine.run e;
  Alcotest.(check bool) "cross-partition dropped" false !cross;
  Alcotest.(check bool) "same side delivered" true !within;
  Net.heal n;
  Net.send n ~src:0 ~dst:2 ~bytes:10 (fun () -> cross := true);
  Engine.run e;
  Alcotest.(check bool) "delivered after heal" true !cross

let test_net_loss () =
  let e = Engine.create ~seed:5L () in
  let n = Net.create e { Net.default_config with Net.loss_probability = 1.0 } ~sites:2 in
  let got = ref false in
  Net.send n ~src:0 ~dst:1 ~bytes:10 (fun () -> got := true);
  Engine.run e;
  Alcotest.(check bool) "p=1 loses everything" false !got

let test_net_bandwidth_serialization () =
  let e = Engine.create () in
  let n = Net.create e Net.default_config ~sites:2 in
  (* Two back-to-back 4KB packets share the sender's transmitter: the
     second arrives one serialization time after the first. *)
  let t1 = ref 0 and t2 = ref 0 in
  Net.send n ~src:0 ~dst:1 ~bytes:4096 (fun () -> t1 := Engine.now e);
  Net.send n ~src:0 ~dst:1 ~bytes:4096 (fun () -> t2 := Engine.now e);
  Engine.run e;
  let serialization = (4096 + 64) * 1_000_000 / 1_250_000 in
  Alcotest.(check int) "spacing = tx serialization" serialization (!t2 - !t1)

let test_engine_pending_exact () =
  (* With [debug_pending] set, every [pending] call also cross-checks
     the O(1) counter against the O(n) heap walk. *)
  Engine.debug_pending := true;
  Fun.protect ~finally:(fun () -> Engine.debug_pending := false) @@ fun () ->
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  let h1 = Engine.schedule e ~delay:10 (fun () -> ()) in
  let h2 = Engine.schedule e ~delay:20 (fun () -> ()) in
  let h3 = Engine.schedule e ~delay:30 (fun () -> ()) in
  Alcotest.(check int) "three scheduled" 3 (Engine.pending e);
  Engine.cancel h1;
  Alcotest.(check int) "cancel decrements" 2 (Engine.pending e);
  Engine.cancel h1;
  Alcotest.(check int) "double cancel counts once" 2 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "popping a cancelled tombstone changes nothing" 2 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "firing decrements" 1 (Engine.pending e);
  Engine.cancel h2;
  Alcotest.(check int) "cancelling a fired event is a no-op" 1 (Engine.pending e);
  Engine.cancel h3;
  Alcotest.(check int) "all gone" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_pending_nested_schedule () =
  Engine.debug_pending := true;
  Fun.protect ~finally:(fun () -> Engine.debug_pending := false) @@ fun () ->
  let e = Engine.create () in
  let inner_pending = ref (-1) in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         ignore (Engine.schedule e ~delay:5 (fun () -> ()));
         inner_pending := Engine.pending e));
  Alcotest.(check int) "outer scheduled" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "count seen inside the handler" 1 !inner_pending;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let suite =
  [
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine negative delay" `Quick test_engine_negative_delay;
    Alcotest.test_case "engine pending exact" `Quick test_engine_pending_exact;
    Alcotest.test_case "engine pending nested schedule" `Quick test_engine_pending_nested_schedule;
    Alcotest.test_case "net latency" `Quick test_net_latency;
    Alcotest.test_case "net intra-site" `Quick test_net_intra_site;
    Alcotest.test_case "net fragments" `Quick test_net_fragments;
    Alcotest.test_case "net crash drops" `Quick test_net_crash_drops;
    Alcotest.test_case "net partition" `Quick test_net_partition;
    Alcotest.test_case "net loss" `Quick test_net_loss;
    Alcotest.test_case "net bandwidth serialization" `Quick test_net_bandwidth_serialization;
  ]
