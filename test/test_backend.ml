(* The execution-backend seam: the identical protocol stack runs on the
   deterministic simulator and on the wall-clock driver.

   - Conformance: one fixed scenario (3-site ABCAST group, three
     concurrent senders) on both backends.  On the simulator the run is
     bit-deterministic, so two executions must produce the same
     delivery sequence.  On the wall clock nothing is deterministic —
     the checks are order-relaxed: everything delivered, per-sender
     FIFO, and the totally-ordered primitive still totally orders.

   - Isolation: two simulations run concurrently on separate domains
     must produce exactly the digests they produce sequentially — the
     proof that no shared mutable state (interner, pools, registries,
     uid counters) leaks between domains.

   - Wall-clock timing: timers fire on their microsecond, [run_cond]
     returns as soon as its predicate holds, [Wallclock.stop] ends
     either loop, and a backlog cannot run past [run_cond]'s timeout.
     The timing checks take medians, so one preempted trial cannot fail
     them. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Backend = Vsync_backend.Backend
module Wallclock = Vsync_backend.Wallclock

let e_app = Entry.user 0

let msg_with_tag tag =
  let m = Message.create () in
  Message.set_int m "tag" tag;
  m

let tag_of m = Option.get (Message.get_int m "tag")

(* The fixed scenario: 3 sites, one member each, each member sends 10
   tagged ABCAST multicasts; returns each member's delivery log (tags,
   delivery order).  Drives everything through [run_cond] so the same
   code works on either backend. *)
let run_scenario backend =
  let w = World.create ~backend ~seed:77L ~sites:3 () in
  let p0 = World.proc w ~site:0 ~name:"m0" in
  let p1 = World.proc w ~site:1 ~name:"m1" in
  let p2 = World.proc w ~site:2 ~name:"m2" in
  let procs = [| p0; p1; p2 |] in
  let gid = ref None in
  World.run_task w p0 (fun () -> gid := Some (Runtime.pg_create p0 "seam"));
  let formed = World.run_cond ~timeout_us:20_000_000 w (fun () -> !gid <> None) in
  Alcotest.(check bool) "group created" true formed;
  let gid = Option.get !gid in
  let joined = ref 0 in
  let join p =
    World.run_task w p (fun () ->
        match Runtime.pg_lookup p "seam" with
        | Some g -> (
          match Runtime.pg_join p g ~credentials:(Message.create ()) with
          | Ok () -> incr joined
          | Error e -> Alcotest.failf "join failed: %s" e)
        | None -> Alcotest.fail "lookup failed")
  in
  join p1;
  join p2;
  let all_in = World.run_cond ~timeout_us:20_000_000 w (fun () -> !joined = 2) in
  Alcotest.(check bool) "both joined" true all_in;
  let logs = Array.make 3 [] in
  Array.iteri (fun i p -> Runtime.bind p e_app (fun m -> logs.(i) <- tag_of m :: logs.(i))) procs;
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          for k = 1 to 10 do
            ignore
              (Runtime.bcast p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                 (msg_with_tag ((100 * i) + k))
                 ~want:Types.No_reply)
          done))
    procs;
  let done_ =
    World.run_cond ~timeout_us:60_000_000 w (fun () ->
        Array.for_all (fun l -> List.length l = 30) logs)
  in
  Alcotest.(check bool) "all 30 messages delivered everywhere" true done_;
  Array.map List.rev logs

let sent_tags = List.concat_map (fun i -> List.init 10 (fun k -> (100 * i) + k + 1)) [ 0; 1; 2 ]

(* Order-relaxed invariants — all a wall-clock run may be asked. *)
let check_relaxed logs =
  Array.iteri
    (fun i log ->
      Alcotest.(check (list int))
        (Printf.sprintf "member %d got every message exactly once" i)
        sent_tags
        (List.sort compare log);
      (* Per-sender FIFO: each sender's tags appear in sending order. *)
      List.iter
        (fun sender ->
          let mine = List.filter (fun t -> t / 100 = sender) log in
          Alcotest.(check (list int))
            (Printf.sprintf "member %d sees sender %d in FIFO order" i sender)
            (List.init 10 (fun k -> (100 * sender) + k + 1))
            mine)
        [ 0; 1; 2 ])
    logs;
  (* ABCAST total order holds on any backend: it is a protocol
     guarantee, not a simulator artifact. *)
  Alcotest.(check (list int)) "total order agrees (0 vs 1)" logs.(0) logs.(1);
  Alcotest.(check (list int)) "total order agrees (0 vs 2)" logs.(0) logs.(2)

let test_sim_conformance () =
  let logs = run_scenario World.Sim in
  check_relaxed logs;
  (* Determinism on top: an identical second run reproduces the exact
     delivery sequence. *)
  let logs' = run_scenario World.Sim in
  Array.iteri
    (fun i log ->
      Alcotest.(check (list int)) (Printf.sprintf "member %d sequence reproduced" i) log logs'.(i))
    logs

let test_wall_conformance () =
  let logs = run_scenario (World.Wall Vsync_backend.Wallclock.default_config) in
  check_relaxed logs

(* Digest of a seeded nemesis scenario, for the isolation test. *)
let scenario_digest seed =
  match Scenario.run ~seed ~intensity:0.5 () with
  | Ok r ->
    Alcotest.(check int)
      (Printf.sprintf "seed %Ld oracle-clean" seed)
      0
      (List.length r.Scenario.violations);
    (Oracle.history_digest r.Scenario.oracle, r.Scenario.sent, r.Scenario.delivered)
  | Error e -> Alcotest.failf "scenario setup failed for seed %Ld: %s" seed e

let test_parallel_digest_equality () =
  let seeds = [| 9001L; 9002L |] in
  let sequential = Array.map scenario_digest seeds in
  let parallel = Vsync_parallel.Pool.map ~jobs:2 scenario_digest seeds in
  Array.iteri
    (fun i (digest, sent, delivered) ->
      let pd, ps, pdel = parallel.(i) in
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld digest identical under domain parallelism" seeds.(i))
        digest pd;
      Alcotest.(check int) "sent identical" sent ps;
      Alcotest.(check int) "delivered identical" delivered pdel)
    sequential

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let wall_world () = World.create ~backend:(World.Wall Wallclock.default_config) ~sites:1 ()

(* A predicate that an event turns true 200 µs out holds long before
   [run_cond]'s default 2 ms slice ends. *)
let test_run_cond_prompt () =
  let trial () =
    let w = wall_world () in
    let flag = ref false in
    let t0 = World.now w in
    ignore (Backend.schedule (World.backend w) ~delay:200 (fun () -> flag := true));
    Alcotest.(check bool) "predicate held" true
      (World.run_cond ~timeout_us:1_000_000 w (fun () -> !flag));
    World.now w - t0
  in
  let took = median (List.init 11 (fun _ -> trial ())) in
  if took > 1_000 then Alcotest.failf "run_cond returned after %d us at the median (want <= 1000)" took

(* 200 timers, each armed 500 µs out by the one before it. *)
let test_timer_lateness () =
  let wc = Wallclock.create ~sites:1 () in
  let bk = Wallclock.backend wc in
  let n = 200 and late = ref [] in
  let rec arm k =
    let at = Wallclock.now wc + 500 in
    ignore
      (Backend.schedule_at bk at (fun () ->
           late := (Wallclock.now wc - at) :: !late;
           if k + 1 < n then arm (k + 1) else Wallclock.stop wc))
  in
  arm 0;
  ignore (Wallclock.run_until wc (Wallclock.now wc + 10_000_000));
  Alcotest.(check int) "every timer fired" n (List.length !late);
  let p50 = median !late in
  if p50 > 20 then Alcotest.failf "timers fired %d us late at the median (want <= 20)" p50

let test_stop_ends_both_loops () =
  let wc = Wallclock.create ~sites:1 () in
  let bk = Wallclock.backend wc in
  let fired = ref [] in
  let at delay tag f = ignore (Backend.schedule bk ~delay (fun () -> fired := tag :: !fired; f ())) in
  let stop () = Wallclock.stop wc in
  at 100 "stop1" stop;
  at 50_000 "after" ignore;
  let t0 = Wallclock.now wc in
  Alcotest.(check int) "run_until fired only the stopping event" 1
    (Wallclock.run_until wc (t0 + 1_000_000));
  Alcotest.(check bool) "run_until returned before the next event" true
    (Wallclock.now wc - t0 < 50_000);
  at 100 "stop2" stop;
  Alcotest.(check bool) "run_while reports the predicate unmet" false
    (Wallclock.run_while wc ~deadline:(Wallclock.now wc + 1_000_000) (fun () -> false));
  Alcotest.(check (list string)) "events fired" [ "stop1"; "stop2" ] (List.rev !fired);
  Alcotest.(check int) "the later event is still pending" 1 (Wallclock.pending wc)

(* An event that reschedules itself at delay 0 keeps the loop busy
   forever; [run_cond] still returns by its timeout, asking its
   predicate along the way. *)
let test_backlog_deadline () =
  let w = wall_world () in
  let bk = World.backend w in
  let rec busy () = ignore (Backend.schedule bk ~delay:0 busy) in
  busy ();
  let asked = ref 0 in
  let timeout_us = 20_000 in
  let t0 = World.now w in
  let held = World.run_cond ~timeout_us w (fun () -> incr asked; false) in
  let took = World.now w - t0 in
  Alcotest.(check bool) "predicate never held" false held;
  if took > timeout_us + 50_000 then Alcotest.failf "run_cond returned after %d us" took;
  if !asked < 5 then Alcotest.failf "predicate asked %d times under the backlog" !asked

let suite =
  [
    Alcotest.test_case "seam: fixed scenario on simulator (deterministic)" `Quick
      test_sim_conformance;
    Alcotest.test_case "seam: same scenario on wall clock (order-relaxed)" `Quick
      test_wall_conformance;
    Alcotest.test_case "parallel: per-seed digests equal sequential" `Slow
      test_parallel_digest_equality;
    Alcotest.test_case "wall: run_cond returns when its predicate holds" `Quick
      test_run_cond_prompt;
    Alcotest.test_case "wall: timers fire on their microsecond" `Quick test_timer_lateness;
    Alcotest.test_case "wall: stop ends run_until and run_while" `Quick test_stop_ends_both_loops;
    Alcotest.test_case "wall: run_cond deadline holds under a backlog" `Quick
      test_backlog_deadline;
  ]
