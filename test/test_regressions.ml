(* Regression tests for specific bugs found and fixed during
   development.  Each test reproduces the original trigger; keep them
   even when they look redundant with broader scenarios. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message

let e_app = Entry.user 0

(* Bug 1: the coordinator could start the next view change after
   sending — but before applying — its own commit, building the new
   change against the retiring view and a stale wedge set.  Trigger:
   several joins arriving back-to-back (each join's request lands while
   the previous commit is still in flight to the coordinator itself). *)
let test_concurrent_joins () =
  let w = World.create ~seed:0x7E57L ~sites:4 () in
  let founder = World.proc w ~site:0 ~name:"m0" in
  let gid = ref None in
  World.run_task w founder (fun () -> gid := Some (Runtime.pg_create founder "cj"));
  World.run w;
  let gid = Option.get !gid in
  let ok = Array.make 3 false in
  let joiners = Array.init 3 (fun i -> World.proc w ~site:(i + 1) ~name:(Printf.sprintf "j%d" i)) in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          ignore (Runtime.pg_lookup p "cj");
          match Runtime.pg_join p gid ~credentials:(Message.create ()) with
          | Ok () -> ok.(i) <- true
          | Error _ -> ()))
    joiners;
  World.run w;
  World.run w;
  Array.iteri
    (fun i b -> Alcotest.(check bool) (Printf.sprintf "concurrent join %d completed" i) true b)
    ok;
  match Runtime.pg_view founder gid with
  | Some v -> Alcotest.(check int) "all four in one consistent view" 4 (View.n_members v)
  | None -> Alcotest.fail "no view"

(* Bug 2: the origin never recorded its own CBCAST uids in the causal
   engine, so a flush could re-inject and re-deliver its own message.
   Trigger: a sender's multicast lands in a view-change stabilization
   (another site had not received it when the wedge hit). *)
let test_no_self_redelivery_through_flush () =
  let w = World.create ~seed:7L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "sr"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "sr");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  let got0 = ref [] in
  Runtime.bind members.(0) e_app (fun m -> got0 := Option.get (Message.get_int m "tag") :: !got0);
  Array.iter (fun m -> if m != members.(0) then Runtime.bind m e_app (fun _ -> ())) members;
  (* Send a burst while a join wedges the group mid-stream. *)
  World.run_task w members.(0) (fun () ->
      for k = 1 to 8 do
        Runtime.sleep members.(0) 10_000;
        let msg = Message.create () in
        Message.set_int msg "tag" k;
        ignore (Runtime.bcast members.(0) Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app msg ~want:Types.No_reply)
      done);
  let joiner = World.proc w ~site:1 ~name:"mid-joiner" in
  World.run_task w joiner (fun () ->
      ignore (Runtime.pg_lookup joiner "sr");
      ignore (Runtime.pg_join joiner gid ~credentials:(Message.create ())));
  World.run w;
  Alcotest.(check (list int)) "sender delivered its own burst exactly once"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ] (List.rev !got0)

(* Bug 3: the transport reset a peer's channel state on FIRST contact
   (treating the initial epoch as a restart), so the second message on
   a channel could be mistaken for a duplicate.  Trigger: any two
   messages with an intervening reply on a fresh channel — the original
   manifestation was a join request vanishing after a directory
   query. *)
let test_fresh_channel_second_message () =
  let w = World.create ~seed:2L ~sites:2 () in
  let a = World.proc w ~site:0 ~name:"a" and b = World.proc w ~site:1 ~name:"b" in
  let got = ref [] in
  Runtime.bind a e_app (fun m -> got := Option.get (Message.get_int m "tag") :: !got);
  ignore b;
  World.run_task w b (fun () ->
      for k = 1 to 3 do
        let msg = Message.create () in
        Message.set_int msg "tag" k;
        ignore
          (Runtime.bcast b Types.Cbcast ~dest:(Addr.Proc (Runtime.proc_addr a)) ~entry:e_app msg
             ~want:Types.No_reply);
        (* Give each send its own acknowledgement round. *)
        Runtime.sleep b 100_000
      done);
  World.run w;
  Alcotest.(check (list int)) "every message on a fresh channel arrives" [ 1; 2; 3 ]
    (List.rev !got)

(* Bug 4: events queued at a site that stops being the coordinator
   after a view change were never re-routed, so cascades of failures
   could wedge the group (pg_kill of the whole membership never
   dissolved it).  Covered directly in Test_api.test_pg_kill; here the
   more general cascade: three members die one after another, fast. *)
let test_failure_cascade_dissolves () =
  let w = World.create ~seed:3L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "cas"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "cas");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  Runtime.kill_proc members.(0);
  Runtime.kill_proc members.(1);
  Runtime.kill_proc members.(2);
  World.run w;
  World.run w;
  (* Every site's state for the group must be gone (the empty view
     dissolves it; memberless sites GC their copies). *)
  Array.iter
    (fun m ->
      Alcotest.(check bool) "state dropped everywhere" true (Runtime.pg_view m gid = None))
    members

(* Bug 5: a caller could hang when its responder died between the send
   and the delivery (the dead member was still listed in the view when
   the message arrived at its site).  Trigger: want-reply message to a
   freshly killed member. *)
let test_no_hang_on_dead_responder () =
  let w = World.create ~seed:4L ~sites:2 () in
  let a = World.proc w ~site:0 ~name:"a" and b = World.proc w ~site:1 ~name:"b" in
  Runtime.bind b e_app (fun req -> Runtime.reply b ~request:req (Message.create ()));
  let outcome = ref None in
  World.run_task w a (fun () ->
      (* b dies while the request is in flight. *)
      Runtime.spawn_task a (fun () -> ());
      outcome :=
        Some
          (Runtime.bcast a Types.Cbcast ~dest:(Addr.Proc (Runtime.proc_addr b)) ~entry:e_app
             (Message.create ()) ~want:(Types.Wait_n 1)));
  Runtime.kill_proc b;
  World.run w;
  match !outcome with
  | Some Runtime.All_failed | Some (Runtime.Replies []) -> ()
  | Some (Runtime.Replies _) -> Alcotest.fail "reply from a dead process?"
  | None -> Alcotest.fail "caller hung on a dead responder"

(* Bug 6: one GBCAST uid could be delivered twice, in one commit or in
   two.  An unprocessed batch went back in the queue by four hand-written
   prepends and the minority kept a private batch, all skipping the
   queue's duplicate test, so a re-routed copy rode the next commit
   beside the original.  And a request forwarded in an older view could
   reach the coordinator after the install that delivered it.  Each
   case is the [vsim --sites N --nemesis SEED] run that showed it: four
   queue paths, then the stale request. *)
let test_gbcast_delivered_once () =
  List.iter
    (fun (sites, seed) ->
      match Scenario.run ~sites ~seed () with
      | Error e -> Alcotest.failf "%d sites, seed %Ld: setup failed: %s" sites seed e
      | Ok r ->
        Alcotest.(check (list string))
          (Printf.sprintf "%d sites, seed %Ld: no violations" sites seed)
          []
          (List.map (fun (v : Oracle.violation) -> v.invariant) r.violations))
    [ (4, 1113L); (4, 1007L); (4, 1151L); (4, 2490L); (3, 1066L) ]

(* Bug 7: a receive job queued on the modelled CPU outlived a crash,
   so the restarted incarnation handled a packet its predecessor had
   accepted.  Trigger: the joiner site crashes while the Commit that
   admits its member waits on the CPU (its second receive job) and
   restarts before the job's slot comes up; the Commit then installed
   a ghost copy of the group for the dead joiner. *)
let test_cpu_job_dies_with_incarnation () =
  let w = World.create ~seed:5L ~sites:2 () in
  let founder = World.proc w ~site:0 ~name:"founder" in
  let gid = ref None in
  World.run_task w founder (fun () -> gid := Some (Runtime.pg_create founder "g"));
  World.run w;
  let gid = Option.get !gid in
  let joiner = World.proc w ~site:1 ~name:"joiner" in
  Runtime.spawn_task joiner (fun () ->
      ignore (Runtime.pg_lookup joiner "g");
      ignore (Runtime.pg_join joiner gid ~credentials:(Message.create ())));
  let rt1 = World.runtime w 1 in
  let rec step rises last budget =
    if rises < 2 && budget > 0 then begin
      World.run_for w 100;
      let busy = Runtime.cpu_busy_us rt1 in
      step (if busy > last then rises + 1 else rises) busy (budget - 1)
    end
    else rises
  in
  Alcotest.(check int) "the Commit's receive job is queued" 2
    (step 0 (Runtime.cpu_busy_us rt1) 100_000);
  World.crash_site w 1;
  World.run_for w 500;
  World.restart_site w 1;
  World.run_for w 50_000;
  let fresh = World.proc w ~site:1 ~name:"fresh" in
  Alcotest.(check bool) "the restarted site holds no copy of the group" true
    (Runtime.pg_view fresh gid = None)

(* The message-path rework (interned fields, copy-on-write bodies,
   cached frame sizes) must not perturb protocol behaviour in any way:
   two fixed-seed scenarios have their complete oracle delivery
   histories locked by digest.  These digests were recorded before the
   rework and verified unchanged after it.  If a deliberate protocol
   change moves them, regenerate and say so in the commit message.
   (Regenerated for the wire-efficiency work: frame coalescing and
   delayed acks shift delivery timing, so the oracle histories
   interleave differently — same sent/delivered counts, zero
   violations; see EXPERIMENTS.md.  Regenerated again for the
   primary-partition work: Nemesis.random_plan now emits partition and
   heal phases, so the faulty-seed plan and its whole trace differ —
   and again within that work for the partition-hardening fixes
   (revocable suspicions, past-view wedge fencing, wedge-refusal echo,
   origin-side GBCAST retention), which change recovery interleavings
   on the faulty seed; the clean-run digest is unchanged throughout.
   Regenerated once more when cumulative acks began restarting the
   retransmission timer, which ends spurious go-back-N resends and
   changes the faulty seed's interleaving: same sent count, every one
   of the 116 now delivered at all three members (348, was 239), zero
   violations.) *)
let test_scenario_trace_digests () =
  let digest (r : Scenario.result) =
    Digest.to_hex (Digest.string (Format.asprintf "%a" Oracle.pp_history r.oracle))
  in
  let run_exn sc =
    match sc with Ok r -> r | Error e -> Alcotest.failf "scenario setup failed: %s" e
  in
  let r =
    run_exn
      (Scenario.run ~sites:3 ~horizon_us:6_000_000 ~settle_us:20_000_000 ~intensity:0.5
         ~seed:0xD16E57L ())
  in
  Alcotest.(check int) "faulty run: sent" 116 r.sent;
  Alcotest.(check int) "faulty run: delivered" 348 r.delivered;
  Alcotest.(check int) "faulty run: no violations" 0 (List.length r.violations);
  Alcotest.(check string) "faulty run: trace digest" "57339c7c86598bb96466234e0d54b412" (digest r);
  let r2 =
    run_exn (Scenario.run ~sites:4 ~horizon_us:4_000_000 ~settle_us:10_000_000 ~plan:[] ~seed:42L ())
  in
  Alcotest.(check int) "clean run: sent" 109 r2.sent;
  Alcotest.(check int) "clean run: delivered" 436 r2.delivered;
  Alcotest.(check int) "clean run: no violations" 0 (List.length r2.violations);
  Alcotest.(check string) "clean run: trace digest" "5fbe073e79be3fe24d596902fdccf513" (digest r2)

let suite =
  [
    Alcotest.test_case "concurrent joins (commit-window race)" `Quick test_concurrent_joins;
    Alcotest.test_case "no self-redelivery through flush" `Quick test_no_self_redelivery_through_flush;
    Alcotest.test_case "fresh channel second message" `Quick test_fresh_channel_second_message;
    Alcotest.test_case "failure cascade dissolves group" `Quick test_failure_cascade_dissolves;
    Alcotest.test_case "no hang on dead responder" `Quick test_no_hang_on_dead_responder;
    Alcotest.test_case "GBCAST delivered once through requeues and re-routes" `Quick
      test_gbcast_delivered_once;
    Alcotest.test_case "CPU job dies with its incarnation" `Quick test_cpu_job_dies_with_incarnation;
    Alcotest.test_case "scenario trace digests" `Quick test_scenario_trace_digests;
  ]
