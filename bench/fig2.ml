(* Figure 2 — throughput of asynchronous CBCAST and sender-side latency
   of the three primitives, against message size (10 B .. 10 KB).

   Setup mirrors the paper: a group spanning two SUN-class sites over
   the 10 Mbit Ethernet model; latency is measured "for CBCAST, ABCAST
   and GBCAST invocations in which one reply is needed and comes from a
   local process".  The shape to reproduce: throughput grows with
   message size and saturates; latency ordering CBCAST < ABCAST <=
   GBCAST; and a sharp latency rise between 1 KB and 10 KB because
   large inter-site messages fragment into 4 KB packets. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let sizes = [ 10; 100; 1_000; 10_000 ]

(* (a) async CBCAST throughput: one member floods the group; measure
   delivered payload bytes per second at the remote member. *)
let throughput_at size =
  let c = Harness.make_cluster ~seed:0xF16AL ~sites:2 () in
  let delivered = ref 0 in
  let last_delivery = ref 0 in
  Runtime.bind c.members.(1) Harness.e_app (fun m ->
      (match Message.get_bytes m "pad" with
      | Some b -> delivered := !delivered + Bytes.length b
      | None -> ());
      last_delivery := World.now c.w);
  let n = 200 in
  let start = World.now c.w in
  World.run_task c.w c.members.(0) (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.bcast c.members.(0) Types.Cbcast ~dest:(Addr.Group c.gid)
             ~entry:Harness.e_app (Harness.padded_msg size) ~want:Types.No_reply)
      done);
  World.run ~until:(start + 600_000_000) c.w;
  let elapsed = !last_delivery - start in
  if elapsed <= 0 then 0.0 else float_of_int !delivered /. (float_of_int elapsed /. 1e6)

(* (b) latency with one local reply: members at both sites; the local
   member replies, the remote one sends a null reply.  The clock stops
   when the reply arrives, but ABCAST/GBCAST cannot even deliver
   locally before their ordering round trips complete. *)
let latency_at ~sites mode size =
  let c = Harness.make_cluster ~seed:0x1A7EL ~sites () in
  let extra = World.proc c.w ~site:0 ~name:"local-member" in
  World.run_task c.w extra (fun () ->
      ignore (Runtime.pg_join extra c.gid ~credentials:(Message.create ())));
  World.run c.w;
  (* The local sibling replies; everyone else declines. *)
  Runtime.bind extra Harness.e_app (fun req -> Runtime.reply extra ~request:req (Message.create ()));
  Array.iter
    (fun m -> Runtime.bind m Harness.e_app (fun req -> Runtime.null_reply m ~request:req))
    c.members;
  let lat = ref [] in
  let iters = 10 in
  World.run_task c.w c.members.(0) (fun () ->
      for _ = 1 to iters do
        let t0 = World.now c.w in
        (match
           Runtime.bcast c.members.(0) mode ~dest:(Addr.Group c.gid) ~entry:Harness.e_app
             (Harness.padded_msg size) ~want:(Types.Wait_n 1)
         with
        | Runtime.Replies _ -> lat := float_of_int (World.now c.w - t0) :: !lat
        | Runtime.All_failed -> failwith "fig2: latency rpc failed");
        Runtime.sleep c.members.(0) 50_000
      done);
  World.run ~until:(World.now c.w + 600_000_000) c.w;
  Harness.mean (List.rev !lat) /. 1000.0 (* ms *)

let run () =
  let tput = List.map (fun s -> (s, throughput_at s)) sizes in
  List.iter (fun (s, bps) -> Harness.metric (Printf.sprintf "cbcast_throughput.%dB" s) "B/s" bps) tput;
  Harness.print_table ~title:"Figure 2a: asynchronous CBCAST throughput vs message size"
    ~header:[ "payload bytes"; "throughput (bytes/s)"; "paper shape" ]
    (List.map
       (fun (s, bps) ->
         [
           string_of_int s;
           Printf.sprintf "%.0f" bps;
           (if s = 10_000 then "saturates near the link/CPU limit" else "rising");
         ])
       tput);
  let rising =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b && check rest
      | _ -> true
    in
    check tput
  in
  Printf.printf "throughput monotonically rising with size: %b\n" rising;

  let modes = [ (Types.Cbcast, "CBCAST"); (Types.Abcast, "ABCAST"); (Types.Gbcast, "GBCAST") ] in
  let latencies sites =
    List.map
      (fun (mode, name) ->
        ( name,
          List.map
            (fun s ->
              let ms = latency_at ~sites mode s in
              Harness.metric (Printf.sprintf "latency_%dsites.%s.%dB" sites name s) "ms" ms;
              (s, ms))
            sizes ))
      modes
  in
  let results = latencies 2 in
  Harness.print_table
    ~title:"Figure 2b: latency (ms), one reply from a local process (2 sites)"
    ~header:("primitive" :: List.map (fun s -> Printf.sprintf "%dB" s) sizes)
    (List.map
       (fun (name, pts) -> name :: List.map (fun (_, ms) -> Printf.sprintf "%.1f" ms) pts)
       results);
  (* The paper's panels also vary the number of destinations: a wider
     group slows the ordered primitives (more proposals to collect),
     not the asynchronous one. *)
  let results3 = latencies 3 in
  Harness.print_table
    ~title:"Figure 2b': same, group spanning 3 sites (more destinations)"
    ~header:("primitive" :: List.map (fun s -> Printf.sprintf "%dB" s) sizes)
    (List.map
       (fun (name, pts) -> name :: List.map (fun (_, ms) -> Printf.sprintf "%.1f" ms) pts)
       results3);
  (* Shape assertions the paper implies. *)
  let at name size =
    List.assoc size (List.assoc name results)
  in
  Printf.printf "CBCAST < ABCAST at 1KB: %b\n" (at "CBCAST" 1_000 < at "ABCAST" 1_000);
  Printf.printf "ABCAST <= GBCAST at 1KB: %b\n" (at "ABCAST" 1_000 <= at "GBCAST" 1_000 +. 1.0);
  Printf.printf "latency knee between 1KB and 10KB (ABCAST): %.1fms -> %.1fms (x%.1f)\n"
    (at "ABCAST" 1_000) (at "ABCAST" 10_000)
    (at "ABCAST" 10_000 /. at "ABCAST" 1_000)
