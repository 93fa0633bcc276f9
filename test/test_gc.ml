(* Stability-driven state GC.

   The delivery engines replace "set of every uid ever seen" with
   per-origin-site watermarks advanced on message stability
   (Seqtrack).  These tests pin the contract down at three levels:

   - engine: a duplicate of an already-stabilized multicast (replayed
     {e after} the watermark advanced past it) is still suppressed;
   - runtime: the dedup residue and the retransmission store drain to
     zero at quiescence;
   - system: a duplication/delay-heavy nemesis sweep must show no
     double delivery and clean hygiene at every site (the oracle
     checks both). *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Nemesis = Vsync_sim.Nemesis
module Types = Vsync_core.Types

let e_app = Entry.user 0
let uid usite useq = { Types.usite; useq }

(* --- engine level ---------------------------------------------------- *)

let test_causal_replay_after_stabilize () =
  let sender : int Causal.t = Causal.create ~n_ranks:1 () in
  let recv : int Causal.t = Causal.create ~n_ranks:1 () in
  let send k =
    let vt = Causal.stamp sender ~rank:0 in
    let u = uid 1 k in
    Causal.receive recv ~uid:u ~rank:0 ~vt k;
    (u, vt)
  in
  let sent = List.map send [ 1; 2; 3 ] in
  Alcotest.(check int) "all delivered" 3 (List.length (Causal.drain recv));
  (* Stability of the newest message covers the whole prefix. *)
  Causal.stabilized recv (uid 1 3);
  Alcotest.(check int) "dedup residue collected" 0 (Causal.dedup_residue recv);
  (* Late retransmits of collected messages must still be recognized. *)
  List.iter
    (fun (u, vt) ->
      Alcotest.(check bool) "still seen" true (Causal.seen recv u);
      Causal.receive recv ~uid:u ~rank:0 ~vt u.Types.useq)
    sent;
  Alcotest.(check int) "replays suppressed" 0 (List.length (Causal.drain recv));
  (* Fresh traffic still flows. *)
  let u4, vt4 = send 4 in
  ignore vt4;
  Alcotest.(check int) "new message delivered" 1 (List.length (Causal.drain recv));
  Alcotest.(check bool) "new message seen" true (Causal.seen recv u4)

let test_causal_fifo_replay_after_stabilize () =
  let recv : int Causal.t = Causal.create ~n_ranks:2 () in
  List.iter (fun k -> Causal.receive_fifo recv ~uid:(uid 2 k) k) [ 10; 11; 12 ];
  Alcotest.(check int) "all delivered" 3 (List.length (Causal.drain recv));
  Causal.stabilized recv (uid 2 12);
  List.iter (fun k -> Causal.receive_fifo recv ~uid:(uid 2 k) k) [ 10; 11; 12 ];
  Alcotest.(check int) "replays suppressed" 0 (List.length (Causal.drain recv));
  Alcotest.(check int) "residue empty" 0 (Causal.dedup_residue recv)

let test_total_replay_after_stabilize () =
  let t : int Total.t = Total.create ~site:0 () in
  let deliver u =
    let p = Total.intake t ~uid:u u.Types.useq in
    Total.commit t ~uid:u p;
    Total.drain t
  in
  Alcotest.(check int) "m1 delivered" 1 (List.length (deliver (uid 1 1)));
  Alcotest.(check int) "m2 delivered" 1 (List.length (deliver (uid 1 2)));
  Total.stabilized t (uid 1 2);
  Alcotest.(check int) "residue collected" 0 (Total.dedup_residue t);
  (* Replayed intake: recognized as delivered — no re-buffering, the
     returned priority is harmless. *)
  ignore (Total.intake t ~uid:(uid 1 1) 1);
  Alcotest.(check bool) "still seen" true (Total.seen t (uid 1 1));
  Alcotest.(check int) "no resurrected entry" 0 (List.length (Total.pending t));
  (* Replayed commit: no-op. *)
  Total.commit t ~uid:(uid 1 1) (1, 0);
  Alcotest.(check int) "replay delivers nothing" 0 (List.length (Total.drain t));
  (* Fresh traffic still flows. *)
  Alcotest.(check int) "new message delivered" 1 (List.length (deliver (uid 1 3)))

let test_total_commit_precedence () =
  (* A commit for a message still buffered must land even though a
     watermark advance (driven by a different, later uid of the same
     origin site) has raced past nothing — entries always win over the
     delivered check. *)
  let t : int Total.t = Total.create ~site:0 () in
  let u = uid 3 7 in
  let p = Total.intake t ~uid:u 7 in
  Total.commit t ~uid:u p;
  Alcotest.(check int) "committed entry delivers" 1 (List.length (Total.drain t))

(* --- runtime level --------------------------------------------------- *)

let form ?(seed = 41L) ~sites () =
  let w = World.create ~seed ~sites () in
  let members = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "g%d" s)) in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "gc"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "gc");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  (w, members, gid)

let flood w members gid n =
  Array.iter (fun m -> Runtime.bind m e_app (fun _ -> ())) members;
  World.run_task w members.(0) (fun () ->
      for k = 1 to n do
        let m = Message.create () in
        Message.set_int m "k" k;
        let mode = if k mod 4 = 0 then Types.Abcast else Types.Cbcast in
        ignore (Runtime.bcast members.(0) mode ~dest:(Addr.Group gid) ~entry:e_app m ~want:Types.No_reply)
      done);
  World.run w

let sum_gauge w f =
  let acc = ref 0 in
  for s = 0 to World.n_sites w - 1 do
    acc := !acc + f (World.runtime w s)
  done;
  !acc

let test_runtime_drains_with_gc () =
  let w, members, gid = form ~sites:3 () in
  flood w members gid 60;
  Alcotest.(check int) "dedup residue drains" 0 (sum_gauge w Runtime.dedup_residue);
  Alcotest.(check int) "store drains" 0 (sum_gauge w Runtime.pending_store);
  Alcotest.(check int) "unstables drain" 0 (sum_gauge w Runtime.pending_unstable)

let test_local_group_bounded () =
  (* A purely local group has no [Stable] flow; origination must GC its
     own round immediately. *)
  let w = World.create ~seed:43L ~sites:1 () in
  let p = World.proc w ~site:0 ~name:"solo" in
  let gid = ref None in
  World.run_task w p (fun () -> gid := Some (Runtime.pg_create p "solo"));
  World.run w;
  let gid = Option.get !gid in
  Runtime.bind p e_app (fun _ -> ());
  World.run_task w p (fun () ->
      for _ = 1 to 50 do
        ignore
          (Runtime.bcast p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app (Message.create ())
             ~want:Types.No_reply)
      done);
  World.run w;
  Alcotest.(check int) "no store residue" 0 (Runtime.pending_store (World.runtime w 0));
  Alcotest.(check int) "no dedup residue" 0 (Runtime.dedup_residue (World.runtime w 0))

(* --- system level: duplication/delay-heavy nemesis sweep ------------- *)

(* Every inter-site link duplicates aggressively while a couple of slow,
   jittery links delay the copies — replayed frames arrive long after
   the original stabilized and its dedup record was collected.  The
   oracle demands exactly-once delivery and clean hygiene (including
   zero [dedup_residue] / [pending_store]) at every site. *)
let dup_heavy_plan ~sites ~horizon_us =
  let ev at op = { Nemesis.at; op } in
  let ops = ref [] in
  for src = 0 to sites - 1 do
    for dst = 0 to sites - 1 do
      if src <> dst then begin
        ops := ev 100_000 (Nemesis.Dup_window { src; dst; p = 0.5 }) :: !ops;
        if (src + dst) mod 2 = 0 then
          ops :=
            ev 200_000
              (Nemesis.Degrade_link { src; dst; bw_factor = 1.0; extra_us = 40_000; jitter_us = 30_000 })
            :: !ops
      end
    done
  done;
  ops := ev (horizon_us * 85 / 100) Nemesis.Clear_faults :: !ops;
  List.sort (fun a b -> compare a.Nemesis.at b.Nemesis.at) !ops

let test_dup_sweep () =
  let horizon_us = 8_000_000 in
  List.iter
    (fun seed ->
      let plan = dup_heavy_plan ~sites:4 ~horizon_us in
      let r =
        match Scenario.run ~sites:4 ~horizon_us ~plan ~seed () with
        | Ok r -> r
        | Error e -> Alcotest.failf "seed %Ld: scenario setup failed: %s" seed e
      in
      if r.Scenario.violations <> [] then
        Alcotest.failf "seed %Ld: %s" seed (Oracle.report r.Scenario.oracle r.Scenario.violations);
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: traffic flowed" seed)
        true (r.Scenario.delivered > 0))
    [ 71L; 72L; 73L; 74L; 75L; 76L; 77L; 78L ]

let suite =
  [
    Alcotest.test_case "causal: replay after stabilize suppressed" `Quick
      test_causal_replay_after_stabilize;
    Alcotest.test_case "causal: fifo replay after stabilize suppressed" `Quick
      test_causal_fifo_replay_after_stabilize;
    Alcotest.test_case "total: replay after stabilize suppressed" `Quick
      test_total_replay_after_stabilize;
    Alcotest.test_case "total: commit precedence over watermark" `Quick
      test_total_commit_precedence;
    Alcotest.test_case "runtime: state drains at quiescence" `Quick test_runtime_drains_with_gc;
    Alcotest.test_case "runtime: local-only group stays bounded" `Quick test_local_group_bounded;
    Alcotest.test_case "nemesis: dup/delay-heavy sweep, exactly-once + hygiene" `Slow
      test_dup_sweep;
  ]
