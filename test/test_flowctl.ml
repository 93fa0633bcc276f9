(* Flow control: one admission rule for every primitive, typed
   backpressure from the runtime to originators, and the ABCAST
   origination window that derives the admission limit.  Everything
   here is deterministic — fixed seeds on the simulator — and the
   25-seed sweep at the end runs the default configuration under the
   nemesis. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Types = Vsync_core.Types

let e_app = Entry.user 0

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

type overload = {
  per_member_s : float;  (** deliveries per member per second of the window *)
  peak : int;  (** max over samples and sites of [runtime.accepted + runtime.ab_queue] *)
  parked : int;  (** [bcast_wait] calls that had to wait *)
  w : World.t;
}

(* Open-loop [bcast_wait] senders of [mode], one per site, offering
   [rate] multicasts per second in aggregate for 5 s of virtual time;
   the admission gauges are sampled every millisecond. *)
let run_overload ~mode ~rate =
  let sites = 3 and window_us = 5_000_000 in
  let w = World.create ~seed:0x10C5L ~sites () in
  let members = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let delivered = ref 0 in
  let parked = ref 0 in
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
              (Runtime.bcast_wait
                 ~on_backpressure:(fun _ -> incr parked)
                 p mode ~dest:(Addr.Group gid) ~entry:e_app (Message.create ())
                 ~want:Types.No_reply);
            due := !due + interval_us
          done))
    members;
  let peak = ref 0 in
  while World.now w < t_end do
    World.run_for w 1_000;
    for s = 0 to sites - 1 do
      peak := max !peak (gauge_at w s "runtime.accepted" + gauge_at w s "runtime.ab_queue")
    done
  done;
  let per_member_s = float_of_int !delivered /. float_of_int sites /. (float_of_int window_us /. 1e6) in
  { per_member_s; peak = !peak; parked = !parked; w }

let test_overload_admission_bounded () =
  (* Default config, open-loop [bcast_wait] senders far past capacity,
     once per primitive: ABCAST at the ledger's 10x-overload rate, and
     CBCAST at 3,000 msg/s, ten times the ~300 msg/s this group
     sustains clean.  Without an admission limit every send's modelled
     CPU charge queues ahead of the frames that finish rounds and
     acknowledge messages; an asynchronous CBCAST flood grows the CPU
     queue without bound and throughput sinks toward 200 msgs/s per
     member.  The one derived limit keeps the backlog within two windows
     and the group delivering at full speed, whatever the primitive. *)
  let limit = (2 * Runtime.default_config.Runtime.ab_window) + 1 in
  List.iter
    (fun (name, mode, rate, floor) ->
      let o = run_overload ~mode ~rate in
      Alcotest.(check bool) (name ^ ": senders parked") true (o.parked > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: accepted + ab_queue peak %d <= %d" name o.peak limit)
        true (o.peak <= limit);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f msgs/s per member >= %.0f" name o.per_member_s floor)
        true (o.per_member_s >= floor);
      (* The senders' backlog drains, and admission leaves nothing behind. *)
      World.run o.w;
      for s = 0 to World.n_sites o.w - 1 do
        Alcotest.(check int) (Printf.sprintf "%s: site %d: accepted drained" name s) 0
          (gauge_at o.w s "runtime.accepted");
        Alcotest.(check int) (Printf.sprintf "%s: site %d: ab_queue drained" name s) 0
          (gauge_at o.w s "runtime.ab_queue")
      done)
    [ ("ABCAST", Types.Abcast, 970, 150.0); ("CBCAST", Types.Cbcast, 3_000, 300.0) ]

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
    Alcotest.(check int) (Printf.sprintf "site %d: accepted drained" s) 0
      (gauge_at w s "runtime.accepted");
    Alcotest.(check int) (Printf.sprintf "site %d: ab_queue drained" s) 0
      (gauge_at w s "runtime.ab_queue")
  done

let test_window_below_one_rejected () =
  (* Every ABCAST would park forever behind a window with no slots. *)
  let config = { Runtime.default_config with Runtime.ab_window = 0 } in
  Alcotest.check_raises "ab_window = 0"
    (Invalid_argument "Runtime.create: ab_window must be >= 1") (fun () ->
      ignore (World.create ~seed:1L ~runtime_config:config ~sites:1 ()))

(* --- 25-seed oracle sweep under the one admission rule --- *)

let test_sweep () =
  (* The nemesis scenario at intensity 0.5 runs the default
     configuration, whose admission rule paces every primitive: every
     seed must satisfy every oracle invariant and make progress. *)
  for s = 1 to 25 do
    let seed = Int64.of_int (1000 + s) in
    match Scenario.run ~sites:3 ~horizon_us:3_000_000 ~settle_us:15_000_000 ~intensity:0.5 ~seed () with
    | Error e -> Alcotest.failf "seed %Ld: setup failed: %s" seed e
    | Ok r ->
      Alcotest.(check int) (Printf.sprintf "seed %Ld: no violations" seed) 0
        (List.length r.violations);
      Alcotest.(check bool) (Printf.sprintf "seed %Ld: traffic made progress" seed) true
        (r.delivered > 0)
  done

let suite =
  [
    Alcotest.test_case "backpressure fires and releases" `Quick test_backpressure_fires_and_releases;
    Alcotest.test_case "10x overload: admission bounds the backlog" `Quick
      test_overload_admission_bounded;
    Alcotest.test_case "parked sender resumes after a view change" `Quick
      test_parked_sender_resumes_after_view_change;
    Alcotest.test_case "ab_window below 1 rejected" `Quick test_window_below_one_rejected;
    Alcotest.test_case "25-seed sweep: admission under the nemesis" `Slow test_sweep;
  ]
