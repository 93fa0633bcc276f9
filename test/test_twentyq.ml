(* The paper's Sec 5 application, end to end: distribution, standbys,
   dynamic updates, reconfiguration, total-failure restart. *)

open Vsync_core
open Twentyq
module Message = Vsync_msg.Message
module Stable_store = Vsync_toolkit.Stable_store

let answer = Alcotest.testable (Fmt.of_to_string Database.answer_to_string) ( = )

(* Service with [extra] members beyond the creator, NMEMBERS = 5, on 3
   sites (members round-robin across sites). *)
let make ?(seed = 11L) ?(extra = 5) ?store () =
  let w = World.create ~seed ~sites:3 () in
  let procs =
    Array.init (extra + 1) (fun i -> World.proc w ~site:(i mod 3) ~name:(Printf.sprintf "tq%d" i))
  in
  let services = Array.make (extra + 1) None in
  World.run_task w procs.(0) (fun () ->
      services.(0) <-
        Some (Service.create procs.(0) ~db:(Database.demo_cars ()) ~nmembers:5 ?store ()));
  World.run w;
  for i = 1 to extra do
    World.run_task w procs.(i) (fun () ->
        match Service.join procs.(i) ?store () with
        | Ok s -> services.(i) <- Some s
        | Error e -> Alcotest.failf "member %d join: %s" i e);
    World.run w
  done;
  let client_proc = World.proc w ~site:2 ~name:"frontend" in
  let client = ref None in
  World.run_task w client_proc (fun () ->
      match Client.connect client_proc with
      | Ok c -> client := Some c
      | Error e -> Alcotest.failf "connect: %s" e);
  World.run w;
  (w, procs, Array.map Option.get services, client_proc, Option.get !client)

let test_database_answers () =
  let db = Database.demo_cars () in
  let q = Option.get (Database.parse_query "price>9000") in
  Alcotest.check answer "all rows: sometimes" Database.Sometimes
    (Database.eval db ~restrict_object:"car" q ~row_filter:(fun _ -> true));
  let q2 = Option.get (Database.parse_query "color=red") in
  Alcotest.check answer "one red car" Database.Sometimes
    (Database.eval db ~restrict_object:"car" q2 ~row_filter:(fun _ -> true));
  let q3 = Option.get (Database.parse_query "price>1") in
  Alcotest.check answer "every car costs something" Database.Yes
    (Database.eval db ~restrict_object:"car" q3 ~row_filter:(fun _ -> true))

let test_vertical_query () =
  let w, _procs, _services, client_proc, client = make () in
  World.run_task w client_proc (fun () ->
      match Client.vertical client "price>9000" with
      | Ok a -> Alcotest.check answer "vertical price>9000" Database.Sometimes a
      | Error e -> Alcotest.failf "vertical: %s" e);
  World.run w

let test_horizontal_query () =
  let w, _procs, _services, client_proc, client = make () in
  let got = ref None in
  World.run_task w client_proc (fun () ->
      match Client.horizontal client "price>9000" with
      | Ok answers -> got := Some answers
      | Error e -> Alcotest.failf "horizontal: %s" e);
  World.run w;
  match !got with
  | Some answers ->
    (* Five per-member verdicts over the row partition (the paper's
       Step 2 reply vector, for our row numbering). *)
    Alcotest.(check int) "NMEMBERS answers" 5 (List.length answers);
    (* Over the full 13-row demo relation (cars + planes), the row
       partition puts both expensive cars in member 4's share and at
       least one expensive row in everyone else's except none: *)
    let counts a = List.length (List.filter (( = ) a) answers) in
    Alcotest.(check int) "one member answers yes" 1 (counts Database.Yes);
    Alcotest.(check int) "four answer sometimes" 4 (counts Database.Sometimes)
  | None -> Alcotest.fail "no answer"

let test_standby_takeover () =
  let w, procs, services, client_proc, client = make () in
  (* Member number 3 answers "price" queries (column 3 mod 5).  Kill it:
     ranks shift, the hot standby becomes active, and a reissued query
     succeeds. *)
  let victim =
    Array.to_list services
    |> List.find (fun s -> Service.my_number s = Some 3)
  in
  ignore procs;
  Runtime.kill_proc
    (Array.to_list procs
    |> List.find (fun p ->
           match Runtime.pg_rank p (Service.gid victim) with Some 3 -> true | _ -> false));
  World.run_for w 3_000_000;
  World.run_task w client_proc (fun () ->
      match Client.vertical client "price>9000" with
      | Ok a -> Alcotest.check answer "after takeover" Database.Sometimes a
      | Error e -> Alcotest.failf "vertical after failure: %s" e);
  World.run w

let test_dynamic_update () =
  let w, _procs, services, client_proc, client = make () in
  World.run_task w client_proc (fun () ->
      Client.add_row client [ "car"; "red"; "sport"; "99999"; "Ferrari"; "F40" ];
      Runtime.sleep client_proc 2_000_000;
      match Client.vertical client "make=Ferrari" with
      | Ok a -> Alcotest.check answer "new row visible" Database.Sometimes a
      | Error e -> Alcotest.failf "query after update: %s" e);
  World.run w;
  Array.iter
    (fun s ->
      Alcotest.(check int) "update applied at every member" 14 (Database.n_rows (Service.db s)))
    services

let test_wrong_arity_row_rejected () =
  (* A 4-value row against the 6-column demo table, and a removal keyed
     on a column the table lacks, arrive in GBCASTs at every member:
     each rejects them, none logs them, the world keeps running, and a
     valid row sent afterwards lands everywhere. *)
  let store = Stable_store.create ~sites:3 () in
  let w, procs, services, client_proc, client = make ~store () in
  let log_lengths () =
    List.init 3 (fun site -> Stable_store.log_length store ~site ~log:"twentyq.updates")
  in
  let logged = log_lengths () in
  World.run_task w client_proc (fun () ->
      Client.add_row client [ "car"; "red"; "sport"; "1" ];
      Client.remove_rows client ~column:"wheels" ~value:"4");
  World.run w;
  Array.iter
    (fun s -> Alcotest.(check int) "bad updates rejected at every member" 13 (Database.n_rows (Service.db s)))
    services;
  Alcotest.(check (list int)) "bad updates never logged" logged (log_lengths ());
  Alcotest.(check bool) "members still alive" true (Array.for_all Runtime.proc_alive procs);
  World.run_task w client_proc (fun () ->
      Client.add_row client [ "car"; "red"; "sport"; "99999"; "Ferrari"; "F40" ]);
  World.run w;
  Array.iter
    (fun s -> Alcotest.(check int) "valid row lands afterwards" 14 (Database.n_rows (Service.db s)))
    services

let test_bulk_loader_parks () =
  (* One task slams the database with 200 back-to-back asynchronous
     rows: admission parks it whenever the group's origination backlog
     reaches two windows, and every row still reaches every member. *)
  let w, _procs, services, client_proc, client = make () in
  let parked = ref 0 in
  World.run_task w client_proc (fun () ->
      for i = 1 to 200 do
        Client.add_row ~on_backpressure:(fun _ -> incr parked) client
          [ "car"; "grey"; "bulk"; string_of_int i; "Loader"; "B" ^ string_of_int i ]
      done);
  World.run w;
  Alcotest.(check bool) (Printf.sprintf "loader parked (%d times)" !parked) true (!parked > 0);
  Array.iter
    (fun s -> Alcotest.(check int) "all 200 rows at every member" 213 (Database.n_rows (Service.db s)))
    services

let test_reconfigure_nmembers () =
  let w, _procs, services, client_proc, client = make () in
  World.run_task w client_proc (fun () ->
      Service.set_nmembers services.(0) 3;
      Runtime.sleep client_proc 2_000_000;
      match Client.horizontal client "price>9000" with
      | Ok answers -> Alcotest.(check int) "three answers after shrink" 3 (List.length answers)
      | Error e -> Alcotest.failf "horizontal after reconfig: %s" e);
  World.run w

let test_game_secret () =
  let w, _procs, services, client_proc, client = make () in
  World.run_task w client_proc (fun () ->
      Service.set_secret services.(0) "plane";
      Runtime.sleep client_proc 2_000_000;
      (match Client.vertical client "price>100000" with
      | Ok a -> Alcotest.check answer "planes are expensive" Database.Sometimes a
      | Error e -> Alcotest.failf "q1: %s" e);
      match Client.vertical client "make=Boeing" with
      | Ok a -> Alcotest.check answer "one Boeing" Database.Sometimes a
      | Error e -> Alcotest.failf "q2: %s" e);
  World.run w

let test_total_failure_restart () =
  let store = Stable_store.create ~sites:3 () in
  let w, _procs, _services, client_proc, client = make ~extra:2 ~store () in
  World.run_task w client_proc (fun () ->
      Client.add_row client [ "car"; "gold"; "sedan"; "77777"; "Lexus"; "LS" ]);
  World.run w;
  (* Total failure: all three sites die. *)
  World.crash_site w 0;
  World.crash_site w 1;
  World.crash_site w 2;
  World.run_for w 5_000_000;
  World.restart_site w 0;
  World.restart_site w 1;
  World.restart_site w 2;
  let p = World.proc w ~site:0 ~name:"tq-restart" in
  let restarted = ref None in
  World.run_task w p (fun () ->
      match Service.restart_from_log p ~store with
      | Ok s -> restarted := Some s
      | Error e -> Alcotest.failf "restart: %s" e);
  World.run w;
  match !restarted with
  | Some s ->
    Alcotest.(check int) "database restored with the logged update" 14
      (Database.n_rows (Service.db s))
  | None -> Alcotest.fail "service did not restart"

(* Step 3: automatic member restart through the remote execution
   service. *)
let test_auto_restart () =
  let w = World.create ~seed:91L ~sites:3 () in
  Array.iter ignore (Array.init 3 (fun s -> Vsync_toolkit.Remote_exec.start (World.runtime w s) |> ignore; ()));
  Service.register_member_program ();
  let procs = Array.init 3 (fun i -> World.proc w ~site:i ~name:(Printf.sprintf "tq%d" i)) in
  let services = Array.make 3 None in
  World.run_task w procs.(0) (fun () ->
      let s = Service.create procs.(0) ~db:(Database.demo_cars ()) ~nmembers:3 () in
      Service.enable_auto_restart s;
      services.(0) <- Some s);
  World.run w;
  for i = 1 to 2 do
    World.run_task w procs.(i) (fun () ->
        match Service.join procs.(i) () with
        | Ok s ->
          Service.enable_auto_restart s;
          services.(i) <- Some s
        | Error e -> Alcotest.failf "join: %s" e);
    World.run w
  done;
  (* Kill a member: the oldest must notice the deficit and start a
     replacement somewhere. *)
  Runtime.kill_proc procs.(1);
  World.run w;
  World.run w;
  match Runtime.pg_view procs.(0) (Service.gid (Option.get services.(0))) with
  | Some v ->
    Alcotest.(check int) "membership restored to NMEMBERS" 3 (View.n_members v);
    Alcotest.(check bool) "the dead member is not back" false
      (View.is_member v (Runtime.proc_addr procs.(1)))
  | None -> Alcotest.fail "group vanished"

let suite =
  [
    Alcotest.test_case "database answers" `Quick test_database_answers;
    Alcotest.test_case "vertical query" `Quick test_vertical_query;
    Alcotest.test_case "horizontal query" `Quick test_horizontal_query;
    Alcotest.test_case "standby takeover" `Quick test_standby_takeover;
    Alcotest.test_case "dynamic update" `Quick test_dynamic_update;
    Alcotest.test_case "wrong-arity row rejected everywhere" `Quick test_wrong_arity_row_rejected;
    Alcotest.test_case "bulk loader parks under admission" `Quick test_bulk_loader_parks;
    Alcotest.test_case "reconfigure NMEMBERS" `Quick test_reconfigure_nmembers;
    Alcotest.test_case "game secret" `Quick test_game_secret;
    Alcotest.test_case "total failure restart" `Quick test_total_failure_restart;
    Alcotest.test_case "step 3: automatic member restart" `Quick test_auto_restart;
  ]
