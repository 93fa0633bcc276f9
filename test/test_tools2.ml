(* Second round of toolkit edge cases: counting semaphores, config
   change callbacks, checkpoint rotation, news unsubscribe, recovery's
   partial-failure path, stable-store erasure, and transport behaviour
   under randomized loss (property). *)

open Vsync_core
open Vsync_toolkit
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let make_service = Test_toolkit.make_service_for_extensions

(* --- counting semaphore (count = 2) --- *)

let test_semaphore_counting () =
  let w, members, _client, gid = make_service ~seed:101L () in
  let tools = Array.map (fun m -> Semaphore.attach m ~gid) members in
  World.run_task w members.(0) (fun () -> Semaphore.define tools.(0) ~name:"pool" ~count:2);
  World.run w;
  let inside = ref 0 and peak = ref 0 and entered = ref 0 in
  Array.iter
    (fun m ->
      World.run_task w m (fun () ->
          match Semaphore.p m ~gid ~name:"pool" with
          | Ok () ->
            incr entered;
            incr inside;
            if !inside > !peak then peak := !inside;
            Runtime.sleep m 1_000_000;
            decr inside;
            Semaphore.v m ~gid ~name:"pool"
          | Error e -> Alcotest.failf "P: %s" e))
    members;
  World.run w;
  Alcotest.(check int) "all three eventually entered" 3 !entered;
  Alcotest.(check int) "concurrency capped at the count" 2 !peak

(* --- config change callbacks --- *)

let test_config_on_change () =
  let w, members, _client, gid = make_service ~seed:102L () in
  let tools = Array.map (fun m -> Config_tool.attach m ~gid) members in
  let seen = ref [] in
  Config_tool.on_change tools.(2) (fun key -> seen := key :: !seen);
  World.run_task w members.(0) (fun () ->
      Config_tool.update tools.(0) ~key:"alpha" (Message.Int 1);
      Config_tool.update tools.(0) ~key:"beta" (Message.Int 2));
  World.run w;
  Alcotest.(check (list string)) "change callbacks in update order" [ "alpha"; "beta" ]
    (List.rev !seen);
  Alcotest.(check (list string)) "keys listed sorted" [ "alpha"; "beta" ] (Config_tool.keys tools.(2))

(* --- repdata checkpoint rotation --- *)

let test_repdata_checkpoint_rotation () =
  let w, members, _client, gid = make_service ~seed:103L () in
  let store = Stable_store.create ~sites:3 () in
  let state = ref 0 in
  let tool =
    Repdata.attach members.(0) ~gid ~item:"rot" ~order:Repdata.Causal
      ~apply:(fun msg -> state := !state + Option.value ~default:0 (Message.get_int msg "d"))
      ~log:store
      ~checkpoint:
        ( (fun () -> [ Bytes.of_string (string_of_int !state) ]),
          fun chunks -> List.iter (fun c -> state := int_of_string (Bytes.to_string c)) chunks )
      ~checkpoint_every:4 ()
  in
  World.run_task w members.(0) (fun () ->
      for _ = 1 to 10 do
        let u = Message.create () in
        Message.set_int u "d" 1;
        Repdata.update tool u
      done);
  World.run w;
  (* After 10 updates with a threshold of 4, the log rotated at least
     twice and holds fewer than 4 entries. *)
  let remaining = Stable_store.log_length store ~site:0 ~log:(Repdata.log_name tool) in
  Alcotest.(check bool) "log rotated" true (remaining < 4);
  Alcotest.(check bool) "checkpoint exists" true
    (Stable_store.read_checkpoint store ~site:0 ~name:(Repdata.log_name tool) <> None);
  state := 0;
  Repdata.recover tool;
  Alcotest.(check int) "checkpoint + suffix reproduce the state" 10 !state

(* --- news unsubscribe and self-delivery --- *)

let test_news_unsubscribe () =
  let w = World.create ~seed:104L ~sites:2 () in
  let agents = Array.init 2 (fun s -> News.start_agent (World.runtime w s)) in
  World.run w;
  let subscriber = World.proc w ~site:1 ~name:"sub" in
  let got = ref 0 in
  News.subscribe agents.(1) subscriber ~subject:"s" (fun _ -> incr got);
  let poster = World.proc w ~site:0 ~name:"poster" in
  World.run_task w poster (fun () -> News.post poster ~subject:"s" (Message.create ()));
  World.run w;
  Alcotest.(check int) "received while subscribed" 1 !got;
  News.unsubscribe agents.(1) subscriber ~subject:"s";
  World.run_task w poster (fun () -> News.post poster ~subject:"s" (Message.create ()));
  World.run w;
  Alcotest.(check int) "nothing after unsubscribe" 1 !got

(* --- recovery: partial failure decides Join --- *)

let test_recovery_partial_failure_joins () =
  let w = World.create ~seed:105L ~sites:2 () in
  let store = Stable_store.create ~sites:2 () in
  let rm0 = Recovery.create (World.runtime w 0) ~store in
  let rm1 = Recovery.create (World.runtime w 1) ~store in
  World.run w;
  let m0 = World.proc w ~site:0 ~name:"svc0" and m1 = World.proc w ~site:1 ~name:"svc1" in
  World.run_task w m0 (fun () ->
      let g = Runtime.pg_create m0 "pfs" in
      Recovery.note_view rm0 ~service:"pfs" (Option.get (Runtime.pg_view m0 g));
      Recovery.note_running rm0 ~service:"pfs");
  World.run w;
  World.run_task w m1 (fun () ->
      match Runtime.pg_lookup m1 "pfs" with
      | Some g ->
        ignore (Runtime.pg_join m1 g ~credentials:(Message.create ()));
        Recovery.note_view rm1 ~service:"pfs" (Option.get (Runtime.pg_view m1 g));
        Recovery.note_running rm1 ~service:"pfs"
      | None -> Alcotest.fail "lookup");
  World.run w;
  (* Site 1 crashes and comes back while site 0 keeps the service up:
     the decision must be Join, not a competing restart. *)
  World.crash_site w 1;
  World.run_for w 10_000_000;
  World.restart_site w 1;
  let rm1' = Recovery.create (World.runtime w 1) ~store in
  World.run_for w 3_000_000;
  let decision = ref None in
  Recovery.recover rm1' ~service:"pfs" ~decide:(fun d -> decision := Some d);
  World.run w;
  match !decision with
  | Some `Join -> ()
  | Some `Create -> Alcotest.fail "partial failure must rejoin, not restart"
  | None -> Alcotest.fail "no decision"

(* --- stable store erasure --- *)

let test_stable_store_wipe () =
  let store = Stable_store.create ~sites:2 () in
  Stable_store.append store ~site:0 ~log:"l" (Message.create ());
  Stable_store.write_checkpoint store ~site:0 ~name:"c" [ Bytes.of_string "x" ];
  Stable_store.wipe_site store ~site:0;
  Alcotest.(check int) "log gone" 0 (Stable_store.log_length store ~site:0 ~log:"l");
  Alcotest.(check bool) "checkpoint gone" true
    (Stable_store.read_checkpoint store ~site:0 ~name:"c" = None)

(* --- twentyq remove_rows --- *)

let test_twentyq_remove_rows () =
  let w = World.create ~seed:106L ~sites:2 () in
  let m0 = World.proc w ~site:0 ~name:"tq" in
  let svc = ref None in
  World.run_task w m0 (fun () ->
      svc := Some (Twentyq.Service.create m0 ~db:(Twentyq.Database.demo_cars ()) ~nmembers:1 ()));
  World.run w;
  let client_proc = World.proc w ~site:1 ~name:"cl" in
  World.run_task w client_proc (fun () ->
      match Twentyq.Client.connect client_proc with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        Twentyq.Client.remove_rows c ~column:"object" ~value:"plane";
        Runtime.sleep client_proc 2_000_000;
        (match Twentyq.Client.vertical c "make=Boeing" with
        | Ok a -> Alcotest.(check string) "planes gone" "no" (Twentyq.Database.answer_to_string a)
        | Error e -> Alcotest.failf "query: %s" e));
  World.run w;
  Alcotest.(check int) "ten rows remain" 10 (Twentyq.Database.n_rows (Twentyq.Service.db (Option.get !svc)))

(* --- compliance checking (Sec 5 Summary wish) --- *)

let test_mode_check () =
  let w, members, client, gid = make_service ~seed:107L () in
  let e_update = Vsync_msg.Entry.user 1 in
  let applied = ref 0 in
  let checkers =
    Array.map
      (fun m ->
        let chk = Mode_check.install m in
        (* Updates must arrive by GBCAST; queries (e_app) by CBCAST. *)
        Mode_check.require chk ~entry:e_update [ Types.Gbcast ];
        Runtime.bind m e_update (fun _ -> incr applied);
        chk)
      members
  in
  let rejected_senders = ref [] in
  Mode_check.on_violation checkers.(0) (fun m ->
      match Message.sender m with
      | Some s -> rejected_senders := Addr.proc_to_string s :: !rejected_senders
      | None -> ());
  World.run_task w client (fun () ->
      (* A buggy client updates over CBCAST: rejected at every member,
         consistently. *)
      ignore
        (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_update
           (Message.create ()) ~want:Types.No_reply);
      Runtime.sleep client 1_000_000;
      (* A correct client updates over GBCAST: applied everywhere. *)
      ignore
        (Runtime.bcast client Types.Gbcast ~dest:(Addr.Group gid) ~entry:e_update
           (Message.create ()) ~want:Types.No_reply));
  World.run w;
  Alcotest.(check int) "only the compliant update applied (x3 members)" 3 !applied;
  Array.iteri
    (fun i chk ->
      Alcotest.(check int) (Printf.sprintf "member %d rejected the rogue update" i) 1
        (Mode_check.violations chk))
    checkers;
  Alcotest.(check (list string)) "offender identified"
    [ Addr.proc_to_string (Runtime.proc_addr client) ]
    !rejected_senders

(* --- transport under randomized loss: a property over seeds --- *)

let prop_transport_loss =
  QCheck.Test.make ~name:"transport delivers exactly-once in-order under random loss" ~count:25
    QCheck.(pair (1 -- 1000) (0 -- 40))
    (fun (seed, loss_pct) ->
      let module Engine = Vsync_sim.Engine in
      let module Net = Vsync_sim.Net in
      let module Endpoint = Vsync_transport.Endpoint in
      let e = Engine.create ~seed:(Int64.of_int seed) () in
      let n =
        Net.create e
          { Net.default_config with Net.loss_probability = float_of_int loss_pct /. 100.0 }
          ~sites:2
      in
      let fab = Endpoint.fabric (Net.backend n) in
      let a = Endpoint.create fab ~site:0 ~size:(fun _ -> 64) in
      let b = Endpoint.create fab ~site:1 ~size:(fun _ -> 64) in
      Endpoint.set_receiver a (fun ~src:_ _ -> ());
      let got = ref [] in
      Endpoint.set_receiver b (fun ~src:_ tags -> List.iter (fun tag -> got := tag :: !got) tags);
      for tag = 1 to 20 do
        Endpoint.send a ~dst:1 tag
      done;
      Engine.run ~until:600_000_000 e;
      List.rev !got = List.init 20 (fun i -> i + 1))

let suite =
  [
    Alcotest.test_case "semaphore: counting" `Quick test_semaphore_counting;
    Alcotest.test_case "config: on_change order" `Quick test_config_on_change;
    Alcotest.test_case "repdata: checkpoint rotation" `Quick test_repdata_checkpoint_rotation;
    Alcotest.test_case "news: unsubscribe" `Quick test_news_unsubscribe;
    Alcotest.test_case "recovery: partial failure joins" `Quick test_recovery_partial_failure_joins;
    Alcotest.test_case "stable store: wipe" `Quick test_stable_store_wipe;
    Alcotest.test_case "twentyq: remove rows" `Quick test_twentyq_remove_rows;
    Alcotest.test_case "mode-compliance checking" `Quick test_mode_check;
    QCheck_alcotest.to_alcotest prop_transport_loss;
  ]
