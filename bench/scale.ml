(* Scaling behaviour (paper Sec 4.2): "ISIS currently implements a
   non-hierarchical protocol suite.  Although these would scale
   smoothly up to groups of 32 or 64 sites, the extensions reported in
   [Birman-a] will be needed in much larger networks."

   We sweep the group size and measure, per size: remote-delivery
   latency of ABCAST (the originator must collect a priority from every
   member site, so latency grows with the slowest member, not the
   count), the cost of a GBCAST (a full wedge/ack/commit flush across
   all members), and the time to complete a join.  The paper's claim to
   check: growth stays gentle (no blow-up) through tens of sites. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let ab_latency c =
  let delivered = ref 0 in
  let done_at = ref 0 in
  let n = World.n_sites c.Harness.w in
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun _ ->
          incr delivered;
          if !delivered = n then done_at := World.now c.Harness.w))
    c.Harness.members;
  let t0 = World.now c.Harness.w in
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      ignore
        (Runtime.bcast c.Harness.members.(0) Types.Abcast ~dest:(Addr.Group c.Harness.gid)
           ~entry:Harness.e_app (Harness.padded_msg 100) ~want:Types.No_reply));
  World.run_for c.Harness.w 3_000_000;
  if !done_at = 0 then nan else float_of_int (!done_at - t0) /. 1000.0

let gb_latency c =
  let delivered = ref 0 in
  let done_at = ref 0 in
  let n = World.n_sites c.Harness.w in
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun _ ->
          incr delivered;
          if !delivered = n then done_at := World.now c.Harness.w))
    c.Harness.members;
  let t0 = World.now c.Harness.w in
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      ignore
        (Runtime.bcast c.Harness.members.(0) Types.Gbcast ~dest:(Addr.Group c.Harness.gid)
           ~entry:Harness.e_app (Harness.padded_msg 100) ~want:Types.No_reply));
  World.run_for c.Harness.w 3_000_000;
  if !done_at = 0 then nan else float_of_int (!done_at - t0) /. 1000.0

let join_latency c =
  let w = c.Harness.w in
  let joiner = World.proc w ~site:(World.n_sites w - 1) ~name:"scale-joiner" in
  let t0 = World.now w in
  let done_at = ref 0 in
  World.run_task w joiner (fun () ->
      ignore (Runtime.pg_lookup joiner "bench");
      (match Runtime.pg_join joiner c.Harness.gid ~credentials:(Message.create ()) with
      | Ok () -> done_at := World.now w
      | Error _ -> ()));
  World.run_for w 5_000_000;
  if !done_at = 0 then nan else float_of_int (!done_at - t0) /. 1000.0

let run () =
  let sizes = [ 2; 3; 4; 6; 8; 12; 16 ] in
  let rows =
    List.map
      (fun n ->
        let c = Harness.make_cluster ~seed:(Int64.of_int (0x5CA1E + n)) ~sites:n () in
        let ab = ab_latency c in
        let gb = gb_latency c in
        let join = join_latency c in
        let m name = Printf.sprintf "sites%d.%s" n name in
        Harness.metric (m "abcast_all_delivered_ms") "ms" ab;
        Harness.metric (m "gbcast_all_delivered_ms") "ms" gb;
        Harness.metric (m "join_ms") "ms" join;
        [
          string_of_int n;
          Printf.sprintf "%.1f" ab;
          Printf.sprintf "%.1f" gb;
          Printf.sprintf "%.1f" join;
        ])
      sizes
  in
  Harness.print_table
    ~title:"Scaling sweep (Sec 4.2): cost vs group size (one member per site)"
    ~header:[ "sites"; "ABCAST all-delivered (ms)"; "GBCAST all-delivered (ms)"; "join (ms)" ]
    rows;
  Printf.printf
    "expected shape: gentle growth (one ordering round regardless of size; CPU fan-out adds per-site cost)\n"
