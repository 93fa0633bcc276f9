(* Wire efficiency: what frame coalescing, delayed/piggybacked acks and
   the pipelined ABCAST window cost and buy on the wire.

   - CBCAST flood: one member floods asynchronous CBCASTs at a
     3-member group and we count data frames, dedicated ack frames and
     network packets per delivered message, plus raw wire bytes per
     payload byte.

   - ABCAST window sweep: one member floods asynchronous ABCASTs at a
     5-member group; virtual-time throughput (deliveries per simulated
     second over all members, the same metric as bench/msgpath.ml) as
     the origination window grows from 1 to 16, relative to window 1
     (fully serialized rounds). *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Net = Vsync_sim.Net

(* --- wire accounting, summed over every site ------------------------ *)

type totals = {
  data : int;  (* data frames sent, retransmissions included *)
  acks : int;  (* dedicated ack frames (piggybacks don't count) *)
  packets : int;  (* transport packets handed to the network *)
  retx : int;
  net_bytes : int;  (* bytes the network charged, headers included *)
}

let snapshot (w : World.t) =
  let get stats key = try List.assoc key stats with Not_found -> 0 in
  let t = ref { data = 0; acks = 0; packets = 0; retx = 0; net_bytes = 0 } in
  for s = 0 to World.n_sites w - 1 do
    let st = Runtime.transport_stats (World.runtime w s) in
    t :=
      {
        !t with
        data = !t.data + get st "data_frames";
        acks = !t.acks + get st "ack_frames";
        packets = !t.packets + get st "packets";
        retx = !t.retx + get st "retransmits";
      }
  done;
  { !t with net_bytes = Net.bytes_sent (World.net w) }

let diff a b =
  {
    data = a.data - b.data;
    acks = a.acks - b.acks;
    packets = a.packets - b.packets;
    retx = a.retx - b.retx;
    net_bytes = a.net_bytes - b.net_bytes;
  }

(* --- CBCAST flood --------------------------------------------------- *)

type flood_result = {
  delivered : int;
  wire : totals;
  payload_bytes : int;
  elapsed_us : int;
}

(* Flood [n] asynchronous CBCASTs from member 0 and drive the world
   until every member delivered every multicast (or a generous budget
   runs out — short floods always finish). *)
let cbcast_flood ?runtime_config ~sites n =
  let c = Harness.make_cluster ~seed:0x31BEL ?runtime_config ~sites () in
  let delivered = ref 0 in
  Array.iter
    (fun m -> Runtime.bind m Harness.e_app (fun _ -> incr delivered))
    c.Harness.members;
  let msg = Harness.padded_msg 256 in
  let payload = Vsync_msg.Message.size msg in
  let before = snapshot c.Harness.w in
  let t0 = World.now c.Harness.w in
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.bcast c.Harness.members.(0) Types.Cbcast ~dest:(Addr.Group c.Harness.gid)
             ~entry:Harness.e_app (Harness.padded_msg 256) ~want:Types.No_reply)
      done);
  let budget = ref 6000 in
  while !delivered < n * sites && !budget > 0 do
    World.run_for c.Harness.w 10_000;
    decr budget
  done;
  {
    delivered = !delivered;
    wire = diff (snapshot c.Harness.w) before;
    payload_bytes = n * payload;
    elapsed_us = World.now c.Harness.w - t0;
  }

let frames_per_delivered r =
  float_of_int (r.wire.data + r.wire.acks) /. float_of_int (max 1 r.delivered)

(* --- ABCAST window sweep -------------------------------------------- *)

(* Throughput of a back-to-back asynchronous ABCAST stream, measured
   exactly like [bench/msgpath.ml] so the numbers are comparable with
   BENCH_msgpath.json's ~190/s plateau: virtual messages {e delivered}
   per simulated second, over all [sites] members, same seed and
   message count. *)
let abcast_rate ?runtime_config ~sites n =
  let c = Harness.make_cluster ~seed:0x9A7BL ?runtime_config ~sites () in
  let delivered = ref 0 and last_delivery = ref 0 in
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun _ ->
          incr delivered;
          last_delivery := World.now c.Harness.w))
    c.Harness.members;
  let before = snapshot c.Harness.w in
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
  let wire = diff (snapshot c.Harness.w) before in
  let rate =
    if !delivered < n * sites then nan
    else float_of_int !delivered *. 1_000_000.0 /. float_of_int (max 1 (!last_delivery - t0))
  in
  (rate, wire)

let windowed ab_window = { Runtime.default_config with Runtime.ab_window }

(* --- driver ---------------------------------------------------------- *)

let run () =
  let flood_n = if !Harness.smoke then 60 else 400 in
  let ab_n = if !Harness.smoke then 40 else 200 in
  let flood_sites = 3 and ab_sites = 5 in

  let dflt = cbcast_flood ~sites:flood_sites flood_n in
  let row (r : flood_result) =
    [
      string_of_int r.delivered;
      string_of_int r.wire.data;
      string_of_int r.wire.acks;
      string_of_int r.wire.packets;
      Printf.sprintf "%.2f" (frames_per_delivered r);
      Printf.sprintf "%.2f" (float_of_int r.wire.acks /. float_of_int (max 1 r.wire.data));
      Printf.sprintf "%.2f" (float_of_int r.wire.net_bytes /. float_of_int r.payload_bytes);
    ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "CBCAST flood (%d msgs, %d sites, 256 B payload): wire cost per delivery"
         flood_n flood_sites)
    ~header:
      [ "delivered"; "data frames"; "ack frames"; "packets"; "frames/dlv"; "acks/data"; "wire B/payload B" ]
    [ row dflt ];

  let windows = [ 1; 2; 4; 8; 16 ] in
  let sweep =
    List.map
      (fun win -> (win, abcast_rate ~runtime_config:(windowed win) ~sites:ab_sites ab_n))
      windows
  in
  let rate_at win = try fst (List.assoc win sweep) with Not_found -> nan in
  let serial_rate = rate_at 1 in
  let sweep_row win (rate, wire) =
    [
      string_of_int win;
      Printf.sprintf "%.0f" rate;
      Printf.sprintf "%.2fx" (rate /. serial_rate);
      string_of_int wire.packets;
      Printf.sprintf "%.2f" (float_of_int (wire.data + wire.acks) /. float_of_int (max 1 wire.packets));
    ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "ABCAST stream (%d msgs, %d sites): virtual delivered msgs/s vs origination window"
         ab_n ab_sites)
    ~header:[ "window"; "msgs/s (virtual)"; "vs window 1"; "packets"; "frames/pkt" ]
    (List.map (fun (win, r) -> sweep_row win r) sweep);
  let default_window = Runtime.default_config.Runtime.ab_window in
  Printf.printf "default window (%d) speedup over window 1: %.2fx\n" default_window
    (rate_at default_window /. serial_rate);

  match !Harness.json_path with
  | None -> ()
  | Some path ->
    let module J = Harness.Json in
    let flood_json (r : flood_result) =
      J.Obj
        [
          ("delivered", J.Int r.delivered);
          ("data_frames", J.Int r.wire.data);
          ("ack_frames", J.Int r.wire.acks);
          ("packets", J.Int r.wire.packets);
          ("retransmits", J.Int r.wire.retx);
          ("net_bytes", J.Int r.wire.net_bytes);
          ("payload_bytes", J.Int r.payload_bytes);
          ("frames_per_delivered", J.Float (frames_per_delivered r));
          ("wire_bytes_per_payload_byte",
           J.Float (float_of_int r.wire.net_bytes /. float_of_int r.payload_bytes));
          ("elapsed_us", J.Int r.elapsed_us);
        ]
    in
    Harness.write_json path
      (J.Obj
         [
           ("bench", J.Str "wire");
           ("smoke", J.Bool !Harness.smoke);
           ( "cbcast_flood",
             J.Obj
               [
                 ("sites", J.Int flood_sites);
                 ("msgs", J.Int flood_n);
                 ("default", flood_json dflt);
               ] );
           ( "abcast_window",
             J.Obj
               [
                 ("sites", J.Int ab_sites);
                 ("msgs", J.Int ab_n);
                 ( "sweep",
                   J.List
                     (List.map
                        (fun (win, (rate, wire)) ->
                          J.Obj
                            [
                              ("window", J.Int win);
                              ("msgs_per_s", J.Float rate);
                              ("speedup_vs_window1", J.Float (rate /. serial_rate));
                              ("packets", J.Int wire.packets);
                              ( "frames_per_packet",
                                J.Float
                                  (float_of_int (wire.data + wire.acks)
                                  /. float_of_int (max 1 wire.packets)) );
                            ])
                        sweep) );
                 ( "speedup_default_window_vs_window1",
                   J.Float (rate_at default_window /. serial_rate) );
                 ("default_window", J.Int default_window);
               ] );
         ]);
    Printf.printf "wire: JSON written to %s\n" path
