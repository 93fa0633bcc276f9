(* The typed observability layer: zero-cost-when-disabled tracing, the
   JSONL codec round-trip, per-uid timeline reconstruction, site status
   events, and the regression fixes that ride with it (channel-fatal
   reassembly teardown, scenario / news-agent setup failures surfacing
   as values instead of exceptions). *)

module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net
module Trace = Vsync_sim.Trace
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event
module Jsonl = Vsync_obs.Jsonl
module Timeline = Vsync_obs.Timeline
module Metrics = Vsync_obs.Metrics
module Endpoint = Vsync_transport.Endpoint
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
open Vsync_core

(* --- tracer: allocation-free when disabled -------------------------- *)

let test_disabled_no_alloc () =
  let tr = Tracer.create ~now:(fun () -> 0) in
  Alcotest.(check bool) "starts disabled" false (Tracer.enabled tr);
  (* The guard-then-construct idiom: the event is only built after
     [wants] says someone is listening. *)
  let emit_guarded () =
    if Tracer.wants tr Event.Proto then
      Tracer.emit tr (Event.Deliver { site = 0; group = 1; usite = 2; useq = 3 })
  in
  emit_guarded ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    emit_guarded ()
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 10k guarded emissions of a 4-field event would allocate >= 50k
     words; allow a few words of slack for the Gc sampling itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled tracing allocates nothing (saw %.0f words)" dw)
    true (dw < 64.);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Tracer.records tr))

let test_mask_filters_classes () =
  let tr = Tracer.create ~now:(fun () -> 7) in
  Tracer.set_classes tr [ Event.Proto ];
  Tracer.set_enabled tr true;
  Alcotest.(check bool) "wants proto" true (Tracer.wants tr Event.Proto);
  Alcotest.(check bool) "does not want note" false (Tracer.wants tr Event.Note);
  Tracer.emit tr (Event.Deliver { site = 0; group = 1; usite = 2; useq = 3 });
  Tracer.emit tr (Event.Error_event { site = 0; what = "x"; detail = "filtered" });
  Alcotest.(check int) "only the proto event landed" 1 (List.length (Tracer.records tr))

(* --- JSONL round-trip ----------------------------------------------- *)

let sample_events =
  [
    Event.Sched { delay = 125 };
    Event.Fire;
    Event.Net_drop { src = 0; dst = 2; reason = "loss" };
    Event.Net_dup { src = 1; dst = 3 };
    Event.Net_delay { src = 2; dst = 0; extra_us = 4200 };
    Event.Nemesis { action = "link 0->2 loss 0.2" };
    Event.Packet_send { site = 0; dst = 1; nframes = 3; bytes = 812 };
    Event.Packet_recv { site = 1; src = 0; nframes = 3 };
    Event.Retransmit { site = 0; dst = 1; nframes = 2 };
    Event.Rto { site = 0; dst = 1; timeout_us = 20_000 };
    Event.Ack_send { site = 1; dst = 0; upto = 17 };
    Event.Channel_fail { site = 1; peer = 0; dir = "in"; reason = "corrupt \"quoted\"\nstate" };
    Event.Originate { site = 0; proto = "abcast"; group = 1; usite = 0; useq = 9 };
    Event.Frame_tx { site = 0; dst = 1; kind = "ab_data"; usite = 0; useq = 9 };
    Event.Frame_rx { site = 1; src = 0; kind = "ab_data"; usite = 0; useq = 9 };
    Event.Ab_vote { site = 0; voter = 1; usite = 0; useq = 9; prio = 4 };
    Event.Ab_commit { site = 1; usite = 0; useq = 9; prio = 4 };
    Event.Deliver { site = 1; group = 1; usite = 0; useq = 9 };
    Event.Stabilize { site = 1; usite = 0; useq = 9 };
    Event.Wedge { site = 2; group = 1; view_id = 3 };
    Event.Flush { site = 2; group = 1; view_id = 3; attempt = 1 };
    Event.View_install { site = 2; group = 1; view_id = 4; nsites = 3; mhash = 77 };
    Event.Stable_advance { site = 1; origin = 0; upto = 9 };
    Event.Gc_reclaim { site = 1; n = 12 };
    Event.Error_event { site = 0; what = "news.join"; detail = "refused" };
    Event.Site_status { site = 1; peer = 2; status = "down" };
    Event.Site_status { site = 2; peer = 2; status = "restart" };
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i ev ->
      let r = { Event.at = 1000 + i; ev } in
      let line = Jsonl.of_record r in
      match Jsonl.parse line with
      | None -> Alcotest.failf "unparseable line: %s" line
      | Some r' ->
        Alcotest.(check int) (Printf.sprintf "at of %s" line) r.Event.at r'.Event.at;
        Alcotest.(check bool) (Printf.sprintf "event of %s" line) true (r.Event.ev = r'.Event.ev))
    sample_events

let test_jsonl_rejects_garbage () =
  Alcotest.(check bool) "not json" true (Jsonl.parse "nonsense" = None);
  Alcotest.(check bool) "unknown tag" true (Jsonl.parse {|{"at":1,"ev":"martian"}|} = None);
  Alcotest.(check bool)
    "missing field" true
    (Jsonl.parse {|{"at":1,"ev":"deliver","site":0}|} = None)

(* --- timelines from a fixed-seed ABCAST run ------------------------- *)

(* A fully formed 3-site group on a healthy network; every ABCAST's
   timeline must be complete — originated, delivered, stabilized — when
   reconstructed from the captured stream, and survive a JSONL
   round-trip intact. *)
(* A 3-site world whose trace feeds [records] (newest first) with the
   classes [cls], and a group with one member per site. *)
let traced_group ~seed cls =
  let w = World.create ~seed ~sites:3 () in
  let records = ref [] in
  let tr = Trace.obs (World.trace w) in
  Tracer.set_classes tr cls;
  Tracer.add_sink tr (fun r -> records := r :: !records);
  Tracer.set_enabled tr true;
  let members =
    Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "t%d" s))
  in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "obs"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to 2 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "obs");
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "join: %s" e)
  done;
  World.run w;
  (w, records, members, gid)

let test_timeline_complete () =
  let w, records, members, gid = traced_group ~seed:0x0B5EL [ Event.Proto ] in
  let e_app = Vsync_msg.Entry.user 0 in
  Array.iter (fun m -> Runtime.bind m e_app (fun _ -> ())) members;
  World.run_task w members.(0) (fun () ->
      for k = 1 to 20 do
        let msg = Message.create () in
        Message.set_int msg "tag" k;
        ignore
          (Runtime.bcast members.(0) Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app msg
             ~want:Types.No_reply)
      done);
  World.run w;
  let stream = List.rev !records in
  let uids = Timeline.delivered_uids stream in
  Alcotest.(check bool) "some uids delivered" true (List.length uids >= 20);
  List.iter
    (fun (usite, useq) ->
      let tl = Timeline.of_uid stream ~usite ~useq in
      if not (Timeline.complete tl) then
        Alcotest.failf "incomplete timeline for uid %d.%d:@\n%a" usite useq
          (fun ppf -> Format.fprintf ppf "%a" Timeline.pp)
          tl;
      Alcotest.(check (list int))
        (Printf.sprintf "uid %d.%d delivered at every site" usite useq)
        [ 0; 1; 2 ] (Timeline.delivery_sites tl))
    uids;
  (* The same reconstruction must work from a JSONL round-trip. *)
  let stream' = List.filter_map (fun r -> Jsonl.parse (Jsonl.of_record r)) stream in
  Alcotest.(check int) "jsonl round-trip preserves the stream" (List.length stream)
    (List.length stream');
  let usite, useq = List.hd uids in
  Alcotest.(check bool)
    "timeline survives jsonl" true
    (Timeline.complete (Timeline.of_uid stream' ~usite ~useq))

(* --- site status: crash and restart of one site --------------------- *)

(* Site 2 of a 3-site group crashes and later restarts.  On the Note
   stream the victim reports its crash, both survivors then report it
   down, the victim reports its restart, and only after that do both
   survivors report it up again. *)
let test_site_status_crash_restart () =
  let w, records, _, _ = traced_group ~seed:0x5172L [ Event.Note ] in
  World.crash_site w 2;
  World.run_for w 10_000_000;
  World.restart_site w 2;
  World.run_for w 10_000_000;
  let statuses =
    List.filter_map
      (fun r ->
        match r.Event.ev with
        | Event.Site_status { site; peer = 2; status } -> Some (site, status)
        | _ -> None)
      (List.rev !records)
  in
  let index_of ev =
    let rec go i = function
      | [] -> Alcotest.failf "no status %d:%s" (fst ev) (snd ev)
      | x :: rest -> if x = ev then i else go (i + 1) rest
    in
    go 0 statuses
  in
  let crash = index_of (2, "crash") and restart = index_of (2, "restart") in
  List.iter
    (fun s ->
      let down = index_of (s, "down") and up = index_of (s, "up") in
      Alcotest.(check bool) (Printf.sprintf "site %d: crash < down" s) true (crash < down);
      Alcotest.(check bool) (Printf.sprintf "site %d: down < restart" s) true (down < restart);
      Alcotest.(check bool) (Printf.sprintf "site %d: restart < up" s) true (restart < up))
    [ 0; 1 ]

(* --- metrics registry ----------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "events" in
  Metrics.incr c;
  Metrics.add c 4;
  let backing = ref 17 in
  Metrics.gauge m "pending" (fun () -> !backing);
  Alcotest.(check (option int)) "counter" (Some 5) (Metrics.read_int m "events");
  Alcotest.(check (option int)) "gauge" (Some 17) (Metrics.read_int m "pending");
  backing := 3;
  Alcotest.(check (option int)) "gauge re-samples" (Some 3) (Metrics.read_int m "pending");
  Alcotest.(check (option int)) "unknown" None (Metrics.read_int m "nope");
  Alcotest.(check (list string)) "registration order" [ "events"; "pending" ] (Metrics.names m);
  Alcotest.check_raises "duplicate gauge rejected"
    (Invalid_argument "Metrics: duplicate metric pending") (fun () ->
      Metrics.gauge m "pending" (fun () -> 0))

(* Every runtime registers its gauges with the unified registry; the
   oracle's hygiene checks sample them by name, so pin the names. *)
let test_runtime_metrics_registered () =
  let w = World.create ~seed:3L ~sites:2 () in
  let names = Metrics.names (Runtime.metrics (World.runtime w 0)) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%s registered" n) true (List.mem n names))
    [
      "runtime.pending_unstable"; "runtime.held_frames"; "runtime.sessions";
      "runtime.pending_store"; "runtime.dedup_residue"; "transport.inflight";
      "transport.packets"; "transport.retransmits"; "transport.channel_failures";
    ]

(* Table I's tallies are registry counters: [World.metrics] sums them
   over the sites, and each routine moves them by its row of the table.
   The group is the bench's: one member per site of three. *)

let prim_counts w =
  List.filter_map
    (fun (k, v) ->
      match v with
      | Metrics.Counter_v n when String.starts_with ~prefix:"prim." k -> Some (k, n)
      | Metrics.Counter_v _ | Metrics.Gauge_v _ -> None)
    (World.metrics w)

let prim_delta w f =
  let before = prim_counts w in
  f ();
  World.run w;
  List.sort compare
    (List.filter_map
       (fun (k, n) ->
         let d = n - Option.value ~default:0 (List.assoc_opt k before) in
         if d = 0 then None else Some (k, d))
       (prim_counts w))

let test_table1_tallies () =
  let e_app = Vsync_msg.Entry.user 0 in
  let w = World.create ~seed:0xBE5CL ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "b%d" s)) in
  let join p gid =
    match Runtime.pg_join p gid ~credentials:(Message.create ()) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "join: %s" e
  in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "bench"));
  World.run w;
  let gid = Option.get !gid in
  for s = 1 to 2 do
    World.run_task w members.(s) (fun () ->
        ignore (Runtime.pg_lookup members.(s) "bench");
        join members.(s) gid)
  done;
  World.run w;
  let row name expected f =
    Alcotest.(check (list (pair string int))) name expected (prim_delta w f)
  in
  let owner = World.proc w ~site:0 ~name:"owner" in
  let scratch = ref None in
  row "pg_create" [ ("prim.local_rpc", 1) ] (fun () ->
      World.run_task w owner (fun () -> scratch := Some (Runtime.pg_create owner "scratch")));
  Array.iter
    (fun m -> Runtime.bind m e_app (fun req -> Runtime.reply m ~request:req (Message.create ())))
    members;
  let client = World.proc w ~site:2 ~name:"client" in
  row "bcast Wait_all from a non-member" [ ("prim.cbcast", 1); ("prim.reply", 3) ] (fun () ->
      World.run_task w client (fun () ->
          ignore
            (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app
               (Message.create ()) ~want:Types.Wait_all)));
  (* The joiner's site learns the scratch group's contact before the
     measured join, as in the bench. *)
  let joiner = World.proc w ~site:1 ~name:"joiner" in
  World.run_task w joiner (fun () -> ignore (Runtime.pg_lookup joiner "scratch"));
  World.run w;
  row "pg_join" [ ("prim.cbcast", 1); ("prim.gbcast", 1); ("prim.reply", 1) ] (fun () ->
      World.run_task w joiner (fun () -> join joiner (Option.get !scratch)));
  let per_site =
    List.fold_left
      (fun acc s ->
        acc + Option.get (Metrics.read_int (Runtime.metrics (World.runtime w s)) "transport.packets"))
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "packets were sent" true (per_site > 0);
  Alcotest.(check bool) "transport.packets is the per-site sum" true
    (List.assoc_opt "transport.packets" (World.metrics w) = Some (Metrics.Gauge_v per_site))

(* --- regression: reassembly corruption is channel-fatal, not fatal --- *)

type payload = { tag : int; size : int }

let test_reassembly_corruption_fails_channel () =
  let e = Engine.create ~seed:5L () in
  let n = Net.create e Net.default_config ~sites:2 in
  let fab = Endpoint.fabric (Net.backend n) in
  let eps =
    Array.init 2 (fun site -> Endpoint.create fab ~site ~size:(fun p -> p.size))
  in
  let tr = Tracer.create ~now:(fun () -> Engine.now e) in
  Tracer.set_enabled tr true;
  let fails = ref [] in
  Tracer.add_sink tr (fun r ->
      match r.Event.ev with
      | Event.Channel_fail { peer; dir; reason; _ } -> fails := (peer, dir, reason) :: !fails
      | _ -> ());
  Endpoint.set_tracer eps.(1) tr;
  let failed_peers = ref [] in
  Endpoint.set_failure_handler eps.(1) (fun site -> failed_peers := site :: !failed_peers);
  let got = ref 0 in
  Endpoint.set_receiver eps.(1) (fun ~src:_ ps -> got := !got + List.length ps);
  Endpoint.set_receiver eps.(0) (fun ~src:_ _ -> ());
  (* Establish the 0 -> 1 stream. *)
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 64 };
  Engine.run ~until:1_000_000 e;
  Alcotest.(check int) "stream established" 1 !got;
  (* The corrupt state is unreachable over the wire (fragment 0 always
     carries the payload); forge it and run the real drain.  The process
     must survive: the channel fails, the failure handler runs, and the
     teardown is visible on the event stream. *)
  Endpoint.inject_reassembly_corruption eps.(1) ~src:0;
  Alcotest.(check int) "channel failure counted" 1 (Endpoint.channel_failures eps.(1));
  Alcotest.(check (list int)) "failure handler ran" [ 0 ] !failed_peers;
  match !fails with
  | [ (peer, dir, reason) ] ->
    Alcotest.(check int) "against the corrupt peer" 0 peer;
    Alcotest.(check string) "inbound teardown" "in" dir;
    Alcotest.(check bool) (Printf.sprintf "reason is specific: %s" reason) true
      (String.length reason > 0)
  | other -> Alcotest.failf "expected one Channel_fail event, saw %d" (List.length other)

(* --- regression: setup failures are values, not aborts --------------- *)

let test_scenario_returns_ok () =
  match
    Scenario.run ~sites:3 ~horizon_us:1_000_000 ~settle_us:10_000_000 ~plan:[] ~seed:7L ()
  with
  | Error e -> Alcotest.failf "clean scenario failed setup: %s" e
  | Ok r ->
    Alcotest.(check int) "no violations" 0 (List.length r.Scenario.violations);
    Alcotest.(check bool) "progress" true (r.Scenario.delivered > 0)

(* A news agent whose join is refused (here: by a join validator that
   rejects everyone) must not take down its site with an exception: it
   retries, then records the failure on the agent and reports it as an
   [Error_event] on the typed stream. *)
let test_news_join_refused_reports () =
  let w = World.create ~seed:11L ~sites:2 () in
  let errors = ref [] in
  let tr = Trace.obs (World.trace w) in
  Tracer.add_sink tr (fun r ->
      match r.Event.ev with
      | Event.Error_event { site; what; detail } -> errors := (site, what, detail) :: !errors
      | _ -> ());
  Tracer.set_enabled tr true;
  (* Own the news group before any agent exists, and reject all joins. *)
  let owner = World.proc w ~site:0 ~name:"owner" in
  World.run_task w owner (fun () ->
      let gid = Runtime.pg_create owner "sys.news" in
      Runtime.pg_join_verify owner gid (fun _ _ -> false));
  World.run w;
  let agent = Vsync_toolkit.News.start_agent (World.runtime w 1) in
  World.run_for w 30_000_000;
  Alcotest.(check bool) "agent did not become ready" false
    (Vsync_toolkit.News.agent_ready agent);
  (match Vsync_toolkit.News.agent_failed agent with
  | None -> Alcotest.fail "agent_failed should report the refusal"
  | Some reason ->
    Alcotest.(check bool) (Printf.sprintf "reason names the group: %s" reason) true
      (String.length reason > 0));
  match List.rev !errors with
  | (site, what, _) :: _ ->
    Alcotest.(check int) "reported from the agent's site" 1 site;
    Alcotest.(check string) "tagged" "news.join" what
  | [] -> Alcotest.fail "no Error_event on the typed stream"

let suite =
  [
    Alcotest.test_case "tracer: disabled tracing allocates nothing" `Quick test_disabled_no_alloc;
    Alcotest.test_case "tracer: class mask filters" `Quick test_mask_filters_classes;
    Alcotest.test_case "jsonl: round-trip all variants" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl: rejects garbage" `Quick test_jsonl_rejects_garbage;
    Alcotest.test_case "timeline: complete for every abcast uid" `Quick test_timeline_complete;
    Alcotest.test_case "site status: crash, down, restart, up" `Quick
      test_site_status_crash_restart;
    Alcotest.test_case "metrics: registry semantics" `Quick test_metrics_registry;
    Alcotest.test_case "metrics: runtime gauges registered" `Quick
      test_runtime_metrics_registered;
    Alcotest.test_case "metrics: Table I tallies are registry counters" `Quick test_table1_tallies;
    Alcotest.test_case "regression: reassembly corruption is channel-fatal" `Quick
      test_reassembly_corruption_fails_channel;
    Alcotest.test_case "regression: scenario setup failure is a value" `Quick
      test_scenario_returns_ok;
    Alcotest.test_case "regression: news join refusal reported, not fatal" `Quick
      test_news_join_refused_reports;
  ]
