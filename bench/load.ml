(* The Sec 7 CPU-load observation:

   "Asynchronous multicasts and multicasts with a local destination
   resulted in much more efficient CPU utilization: loads of 96% to 98%
   were observed on the sending site in these tests, compared with 30%
   to 35% when running a protocol like ABCAST that must wait for
   messages from remote sites.  The remote sites, if otherwise idle,
   typically showed loads of 20% or less."

   We reproduce the comparison with the per-site CPU accounting: a
   sender flooding asynchronous CBCASTs stays busy back-to-back, while
   a sender running reply-waiting ABCASTs idles through every ordering
   round trip. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let clamp u = Float.min 1.0 u

let utilization_during c f =
  let rt0 = World.runtime c.Harness.w 0 and rt1 = World.runtime c.Harness.w 1 in
  let busy0 = Runtime.cpu_busy_us rt0 and busy1 = Runtime.cpu_busy_us rt1 in
  let t0 = World.now c.Harness.w in
  f ();
  let elapsed = World.now c.Harness.w - t0 in
  ( clamp (float_of_int (Runtime.cpu_busy_us rt0 - busy0) /. float_of_int elapsed),
    clamp (float_of_int (Runtime.cpu_busy_us rt1 - busy1) /. float_of_int elapsed) )

let flood_async c n =
  let done_count = ref 0 in
  Runtime.bind c.Harness.members.(1) Harness.e_app (fun _ -> incr done_count);
  Runtime.bind c.Harness.members.(0) Harness.e_app (fun _ -> ());
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.bcast c.Harness.members.(0) Types.Cbcast ~dest:(Addr.Group c.Harness.gid)
             ~entry:Harness.e_app (Harness.padded_msg 1000) ~want:Types.No_reply)
      done);
  (* Run only while there is work: stop as soon as the last delivery
     lands so idle tails do not dilute the utilization figure. *)
  let w = c.Harness.w in
  let budget = ref 4000 in
  while !done_count < n && !budget > 0 do
    World.run_for w 10_000;
    decr budget
  done

let flood_sync c n =
  let m1 = c.Harness.members.(1) in
  Runtime.bind m1 Harness.e_app (fun req ->
      if Message.session req <> None then Runtime.reply m1 ~request:req (Message.create ()));
  Runtime.bind c.Harness.members.(0) Harness.e_app (fun _ -> ());
  let remote = Runtime.proc_addr c.Harness.members.(1) in
  let finished = ref false in
  World.run_task c.Harness.w c.Harness.members.(0) (fun () ->
      for _ = 1 to n do
        (* Total order + a reply from the remote site: the sender idles
           through the round trips, like the paper's blocking ABCAST
           measurements. *)
        ignore
          (Runtime.bcast c.Harness.members.(0) Types.Abcast ~dest:(Addr.Group c.Harness.gid)
             ~entry:Harness.e_app (Harness.padded_msg 1000) ~want:Types.No_reply);
        match
          Runtime.bcast c.Harness.members.(0) Types.Cbcast ~dest:(Addr.Proc remote)
            ~entry:Harness.e_app (Harness.padded_msg 16) ~want:(Types.Wait_n 1)
        with
        | Runtime.Replies _ | Runtime.All_failed -> ()
      done;
      finished := true);
  let w = c.Harness.w in
  let budget = ref 4000 in
  while (not !finished) && !budget > 0 do
    World.run_for w 10_000;
    decr budget
  done

let run () =
  (* The remote member answers point-to-point probes with a reply. *)
  let c1 = Harness.make_cluster ~seed:0x10ADL ~sites:2 () in
  let async_send, async_recv = utilization_during c1 (fun () -> flood_async c1 200) in
  let c2 = Harness.make_cluster ~seed:0x10AEL ~sites:2 () in
  let sync_send, sync_recv = utilization_during c2 (fun () -> flood_sync c2 30) in
  List.iter
    (fun (name, u) -> Harness.metric name "ratio" u)
    [
      ("async_sender_busy", async_send); ("async_remote_busy", async_recv);
      ("blocking_sender_busy", sync_send); ("blocking_remote_busy", sync_recv);
    ];
  Harness.print_table ~title:"CPU load (Sec 7): asynchronous vs blocking multicast streams"
    ~header:[ "workload"; "site"; "paper"; "measured" ]
    [
      [ "async CBCAST flood"; "sending site"; "96-98%"; Harness.pct async_send ];
      [ "async CBCAST flood"; "remote site"; "<= ~20%+"; Harness.pct async_recv ];
      [ "blocking (ABCAST + reply waits)"; "sending site"; "30-35%"; Harness.pct sync_send ];
      [ "blocking (ABCAST + reply waits)"; "remote site"; "<= ~20%"; Harness.pct sync_recv ];
    ];
  Printf.printf "async sender saturates while blocking sender idles: %b\n"
    (async_send > 0.8 && sync_send < 0.6)
