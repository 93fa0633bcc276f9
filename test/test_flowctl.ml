(* Flow control: per-destination credit budgets on the transport
   (replenished by cumulative acks), typed backpressure from the
   runtime to originators, and the ABCAST origination window that
   derives the admission limit.  Everything here is deterministic —
   fixed seeds on the simulator — and the 25-seed sweep at the end A/Bs
   transport credits against the default configuration under the
   nemesis. *)

open Vsync_core
module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net
module Endpoint = Vsync_transport.Endpoint
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Types = Vsync_core.Types

type payload = { tag : int; size : int }

let e_app = Entry.user 0

let ep_setup ?(sites = 2) ?(seed = 1L) ~config () =
  let e = Engine.create ~seed () in
  let n = Net.create e Net.default_config ~sites in
  let fab = Endpoint.fabric (Net.backend n) in
  let eps =
    Array.init sites (fun site -> Endpoint.create ~config fab ~site ~size:(fun p -> p.size) ())
  in
  (e, n, eps)

let collect ep =
  let log = ref [] in
  Endpoint.set_receiver ep (fun ~src ps -> List.iter (fun p -> log := (src, p.tag) :: !log) ps);
  log

let sink ep = Endpoint.set_receiver ep (fun ~src:_ _ -> ())

(* --- transport credits --- *)

let test_frame_credits_gate_and_replenish () =
  (* Budget of 2 frames: two messages launch, four wait; cumulative
     acks refund the budget and drain the wait queue in FIFO order. *)
  let cfg = { Endpoint.default_config with Endpoint.credit_frames = 2 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  let refunds = ref 0 in
  Endpoint.set_credit_handler eps.(0) (fun _ -> incr refunds);
  for tag = 1 to 6 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Alcotest.(check int) "two launched, four waiting" 4 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check bool) "backpressured while waiting" true (Endpoint.backpressured eps.(0) ~dst:1);
  Alcotest.(check bool) "credit charged" true (Endpoint.credit_used_bytes eps.(0) > 0);
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int)))
    "all delivered, FIFO, exactly once"
    (List.init 6 (fun i -> (0, i + 1)))
    (List.rev !log);
  Alcotest.(check int) "wait queue drained" 0 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check int) "credit fully refunded" 0 (Endpoint.credit_used_bytes eps.(0));
  Alcotest.(check bool) "backpressure released" false (Endpoint.backpressured eps.(0) ~dst:1);
  Alcotest.(check bool) "refund handler fired" true (!refunds > 0)

let test_byte_credits_exact_refund () =
  (* Byte budget that fits exactly one 124-byte-cost message: the
     second send waits until the first message's ack refunds exactly
     its cost (used drops back to zero before the second launches). *)
  let cfg = { Endpoint.default_config with Endpoint.credit_bytes = 150 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  let used_one = Endpoint.credit_used_bytes eps.(0) in
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Alcotest.(check int) "second send waits" 1 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check int) "budget charged for exactly one message" used_one
    (Endpoint.credit_used_bytes eps.(0));
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int))) "both delivered in order" [ (0, 1); (0, 2) ]
    (List.rev !log);
  Alcotest.(check int) "refund is exact: zero residue" 0 (Endpoint.credit_used_bytes eps.(0))

let test_oversized_message_never_wedges () =
  (* A message bigger than the whole budget must still launch on an
     idle channel — the budget degrades to stop-and-wait, not a
     permanent wedge. *)
  let cfg = { Endpoint.default_config with Endpoint.credit_bytes = 50 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  Alcotest.(check int) "oversized message launched, not queued" 0
    (Endpoint.credit_waiting eps.(0));
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Alcotest.(check int) "busy channel queues the next" 1 (Endpoint.credit_waiting eps.(0));
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int))) "stop-and-wait delivery" [ (0, 1); (0, 2) ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Endpoint.credit_waiting eps.(0))

(* --- runtime backpressure --- *)

let flood p gid n =
  let m = Message.create () in
  for _ = 1 to n do
    ignore
      (Runtime.bcast p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app m ~want:Types.No_reply)
  done

let form_group w members =
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "fc"));
  World.run w;
  let gid = Option.get !gid in
  Array.iteri
    (fun i m ->
      if i > 0 then
        World.run_task w m (fun () ->
            ignore (Runtime.pg_lookup m "fc");
            match Runtime.pg_join m gid ~credentials:(Message.create ()) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "join failed: %s" e))
    members;
  World.run w;
  gid

let gauge_at w site name =
  Option.value ~default:(-1)
    (Vsync_obs.Metrics.read_int (Runtime.metrics (World.runtime w site)) name)

let test_backpressure_fires_and_releases () =
  (* ab_window = 1 serializes rounds, so the derived admission limit is
     two undispatched ABCASTs.  The flood saturates the queue, so
     bcast_try reports Backpressure; after the pipeline drains it
     admits again.  Same engine, same seed: fully deterministic. *)
  let config = { Runtime.default_config with Runtime.ab_window = 1 } in
  let w = World.create ~seed:0xF10CL ~runtime_config:config ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let verdict_hot = ref None in
  let verdict_cold = ref None in
  let waited = ref [] in
  let wait_done = ref false in
  World.run_task w members.(0) (fun () ->
      let p = members.(0) in
      flood p gid 12;
      (* Yield so the CPU queue feeds the origination pipeline. *)
      Runtime.sleep p 400_000;
      verdict_hot :=
        Some (Runtime.bcast_try p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                (Message.create ()) ~want:Types.No_reply);
      (* Blocking variant: parks until the overload clears, reporting
         the shed exactly once through the callback. *)
      ignore
        (Runtime.bcast_wait
           ~on_backpressure:(fun g -> waited := g :: !waited)
           p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app (Message.create ())
           ~want:Types.No_reply);
      wait_done := true;
      (* Let everything drain, then admission must be open again. *)
      Runtime.sleep p 30_000_000;
      verdict_cold :=
        Some (Runtime.bcast_try p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                (Message.create ()) ~want:Types.No_reply));
  World.run w;
  (match !verdict_hot with
  | Some (Runtime.Backpressure g) -> Alcotest.(check bool) "overloaded group" true (g = gid)
  | Some (Runtime.Admitted _) -> Alcotest.fail "flooded group did not report backpressure"
  | None -> Alcotest.fail "hot verdict missing");
  Alcotest.(check bool) "bcast_wait completed" true !wait_done;
  Alcotest.(check int) "backpressure callback fired exactly once" 1 (List.length !waited);
  (match !verdict_cold with
  | Some (Runtime.Admitted _) -> ()
  | Some (Runtime.Backpressure _) -> Alcotest.fail "drained group still backpressured"
  | None -> Alcotest.fail "cold verdict missing");
  (* Quiescent hygiene: admission control left nothing queued. *)
  Alcotest.(check int) "no queued rounds at quiescence" 0 (gauge_at w 0 "runtime.ab_queue")

let test_overload_admission_bounded () =
  (* Default config, open-loop bcast_wait ABCASTs at ~10x the clean
     capacity (97 msgs/s aggregate on this network and CPU model).
     Without an admission limit every send's modelled CPU charge queues
     ahead of the frames that finish rounds and throughput collapses to
     a few msgs/s; the derived limit keeps the backlog within two
     windows and the group delivering at full speed. *)
  let sites = 3 and rate = 970 and window_us = 5_000_000 in
  let w = World.create ~seed:0x10C5L ~sites () in
  let members = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let delivered = ref 0 in
  Array.iter (fun m -> Runtime.bind m e_app (fun _ -> incr delivered)) members;
  let t0 = World.now w in
  let t_end = t0 + window_us in
  let interval_us = 1_000_000 * sites / rate in
  Array.iter
    (fun p ->
      World.run_task w p (fun () ->
          let due = ref t0 in
          while !due < t_end do
            let now = World.now w in
            if !due > now then Runtime.sleep p (!due - now);
            ignore
              (Runtime.bcast_wait p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                 (Message.create ()) ~want:Types.No_reply);
            due := !due + interval_us
          done))
    members;
  let peak = ref 0 in
  while World.now w < t_end do
    World.run_for w 1_000;
    for s = 0 to sites - 1 do
      peak := max !peak (gauge_at w s "runtime.ab_queue")
    done
  done;
  let per_member_s = float_of_int !delivered /. float_of_int sites /. (float_of_int window_us /. 1e6) in
  let limit = (2 * Runtime.default_config.Runtime.ab_window) + 1 in
  Alcotest.(check bool)
    (Printf.sprintf "ab_queue peak %d <= %d" !peak limit)
    true (!peak <= limit);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f msgs/s per member >= 150" per_member_s)
    true (per_member_s >= 150.0);
  (* The senders' backlog drains, and admission leaves nothing behind. *)
  World.run w;
  for s = 0 to sites - 1 do
    Alcotest.(check int) (Printf.sprintf "site %d: ab_accepted drained" s) 0
      (gauge_at w s "runtime.ab_accepted");
    Alcotest.(check int) (Printf.sprintf "site %d: ab_queue drained" s) 0
      (gauge_at w s "runtime.ab_queue")
  done

let test_parked_sender_resumes_after_view_change () =
  (* A member site crashes while a sender is parked at the admission
     limit: the rounds in flight wait on the dead site's votes, so the
     backlog cannot drain until the failure detector wedges the group,
     the flush settles those rounds and the two-member view installs
     and restarts the pipeline.  That dispatch must wake the sender. *)
  let w = World.create ~seed:0xC4A5L ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let p = members.(0) in
  let parked = ref 0 in
  let resumed_in = ref None in
  World.run_task w p (fun () ->
      flood p gid ((2 * Runtime.default_config.Runtime.ab_window) + 16);
      ignore
        (Runtime.bcast_wait
           ~on_backpressure:(fun _ -> incr parked)
           p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app (Message.create ())
           ~want:Types.No_reply);
      resumed_in := Option.map View.n_members (Runtime.pg_view p gid));
  World.crash_site w 2;
  World.run w;
  Alcotest.(check int) "sender parked at the limit" 1 !parked;
  Alcotest.(check (option int)) "resumed in the two-member view" (Some 2) !resumed_in;
  for s = 0 to 1 do
    Alcotest.(check int) (Printf.sprintf "site %d: ab_accepted drained" s) 0
      (gauge_at w s "runtime.ab_accepted");
    Alcotest.(check int) (Printf.sprintf "site %d: ab_queue drained" s) 0
      (gauge_at w s "runtime.ab_queue")
  done

let test_window_below_one_rejected () =
  (* Every ABCAST would park forever behind a window with no slots. *)
  let config = { Runtime.default_config with Runtime.ab_window = 0 } in
  Alcotest.check_raises "ab_window = 0"
    (Invalid_argument "Runtime.create: ab_window must be >= 1") (fun () ->
      ignore (World.create ~seed:1L ~runtime_config:config ~sites:1 ()))

(* --- 25-seed oracle sweep: transport credits on vs off --- *)

(* A budget small enough to bind under the scenario's traffic: a
   64 KB / 64-frame budget never fills there, and its histories equal
   the credit-free ones. *)
let credits_config =
  {
    Runtime.default_config with
    Runtime.endpoint =
      { Endpoint.default_config with Endpoint.credit_bytes = 2048; credit_frames = 4 };
  }

let digest (r : Scenario.result) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Oracle.pp_history r.oracle))

let test_sweep_on_off () =
  (* Every seed runs the nemesis scenario twice: the default
     configuration (credits off — the config-less baseline) and the
     same with transport credits.  Both must satisfy every oracle
     invariant.  The off-run must be bit-identical to the baseline that
     doesn't thread a config at all: feature-off means digest-locked
     traces are untouched. *)
  for s = 1 to 25 do
    let seed = Int64.of_int (1000 + s) in
    let run cfg =
      match
        Scenario.run ~sites:3 ~horizon_us:3_000_000 ~settle_us:15_000_000 ~intensity:0.5
          ?runtime_config:cfg ~seed ()
      with
      | Ok r -> r
      | Error e -> Alcotest.failf "seed %Ld: setup failed: %s" seed e
    in
    let off = run None in
    Alcotest.(check int)
      (Printf.sprintf "seed %Ld off: no violations" seed)
      0
      (List.length off.violations);
    let off' = run (Some Runtime.default_config) in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld: explicit default config is bit-identical" seed)
      (digest off) (digest off');
    let on = run (Some credits_config) in
    Alcotest.(check int)
      (Printf.sprintf "seed %Ld on: no violations" seed)
      0
      (List.length on.violations);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld on: traffic made progress" seed)
      true (on.delivered > 0);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld on: credits changed the history" seed)
      false
      (String.equal (digest on) (digest off))
  done

let suite =
  [
    Alcotest.test_case "frame credits gate and replenish" `Quick test_frame_credits_gate_and_replenish;
    Alcotest.test_case "byte credits refund exactly" `Quick test_byte_credits_exact_refund;
    Alcotest.test_case "oversized message never wedges" `Quick test_oversized_message_never_wedges;
    Alcotest.test_case "backpressure fires and releases" `Quick test_backpressure_fires_and_releases;
    Alcotest.test_case "10x overload: admission bounds the backlog" `Quick
      test_overload_admission_bounded;
    Alcotest.test_case "parked sender resumes after a view change" `Quick
      test_parked_sender_resumes_after_view_change;
    Alcotest.test_case "ab_window below 1 rejected" `Quick test_window_below_one_rejected;
    Alcotest.test_case "25-seed sweep: flow control on/off" `Slow test_sweep_on_off;
  ]
