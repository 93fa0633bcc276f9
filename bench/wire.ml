(* ABCAST origination window sweep: one member floods asynchronous
   ABCASTs at a 5-member group; virtual-time throughput (deliveries per
   simulated second over all members) as the origination window grows
   from 1 to 16, relative to window 1 (fully serialized rounds).  This is
   the evidence for the default [ab_window].  The CBCAST flood's wire
   costs are the ledger's sim-flood transport.* metrics. *)

open Vsync_core
module Addr = Vsync_msg.Addr

(* Transport frames (data + dedicated acks) and packets, summed over
   every site. *)
let wire_counts (w : World.t) =
  let get = Harness.total (World.metrics w) in
  (get "transport.data_frames" + get "transport.ack_frames", get "transport.packets")

(* Throughput of a back-to-back asynchronous ABCAST stream: virtual
   messages delivered per simulated second, over all [sites] members,
   plus the stream's frames and packets. *)
let abcast_rate ~ab_window ~sites n =
  let runtime_config = { Runtime.default_config with Runtime.ab_window } in
  let c = Harness.make_cluster ~seed:0x9A7BL ~runtime_config ~sites () in
  let delivered = ref 0 and last_delivery = ref 0 in
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun _ ->
          incr delivered;
          last_delivery := World.now c.Harness.w))
    c.Harness.members;
  let frames0, packets0 = wire_counts c.Harness.w in
  let t0 = World.now c.Harness.w in
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.bcast c.Harness.members.(0) Types.Abcast ~dest:(Addr.Group c.Harness.gid)
             ~entry:Harness.e_app (Harness.padded_msg 256) ~want:Types.No_reply)
      done);
  (* Chunked run, stopping at completion: the wire accounting should
     cover the stream, not minutes of idle failure-detector pings. *)
  let budget = ref 6_000 in
  while !delivered < n * sites && !budget > 0 do
    World.run_for c.Harness.w 100_000;
    decr budget
  done;
  let frames1, packets1 = wire_counts c.Harness.w in
  let rate =
    if !delivered < n * sites then nan
    else float_of_int !delivered *. 1_000_000.0 /. float_of_int (max 1 (!last_delivery - t0))
  in
  (rate, frames1 - frames0, packets1 - packets0)

let run () =
  let ab_n = if !Harness.smoke then 40 else 200 in
  let ab_sites = 5 in
  let sweep =
    List.map (fun win -> (win, abcast_rate ~ab_window:win ~sites:ab_sites ab_n)) [ 1; 2; 4; 8; 16 ]
  in
  let rate_at win = match List.assoc_opt win sweep with Some (r, _, _) -> r | None -> nan in
  let serial_rate = rate_at 1 in
  let rows =
    List.map
      (fun (win, (rate, frames, packets)) ->
        let per_packet = float_of_int frames /. float_of_int (max 1 packets) in
        Harness.metric (Printf.sprintf "window%d.msgs_per_s" win) "msg/s" rate;
        Harness.metric (Printf.sprintf "window%d.packets" win) "count" (float_of_int packets);
        Harness.metric (Printf.sprintf "window%d.frames_per_packet" win) "count" per_packet;
        [
          string_of_int win;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2fx" (rate /. serial_rate);
          string_of_int packets;
          Printf.sprintf "%.2f" per_packet;
        ])
      sweep
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "ABCAST stream (%d msgs, %d sites): virtual delivered msgs/s vs origination window"
         ab_n ab_sites)
    ~header:[ "window"; "msgs/s (virtual)"; "vs window 1"; "packets"; "frames/pkt" ]
    rows;
  let default_window = Runtime.default_config.Runtime.ab_window in
  Printf.printf "default window (%d) speedup over window 1: %.2fx\n" default_window
    (rate_at default_window /. serial_rate)
