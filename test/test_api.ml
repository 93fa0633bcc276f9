(* Coverage of runtime API surfaces not exercised elsewhere: join
   validation, pg_kill, pg_add_member, reply_cc copies, Wait_n
   collection, filters, and the remote execution service. *)

open Vsync_core
open Vsync_toolkit
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message

let e_app = Entry.user 0

let make ?(seed = 3L) ~sites () =
  let w = World.create ~seed ~sites () in
  let members = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "a%d" s)) in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "api"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "api");
        ignore (Runtime.pg_join members.(i) gid ~credentials:(Message.create ())))
  done;
  World.run w;
  (w, members, gid)

(* --- join validation (paper Sec 3.10: "group membership changes are
   similarly validated") --- *)

let test_join_validator () =
  let w, members, gid = make ~sites:2 () in
  Runtime.pg_join_verify members.(0) gid (fun _joiner cred ->
      Message.get_str cred "password" = Some "sesame");
  let try_join name password =
    let p = World.proc w ~site:1 ~name in
    let result = ref None in
    World.run_task w p (fun () ->
        ignore (Runtime.pg_lookup p "api");
        let cred = Message.create () in
        (match password with Some pw -> Message.set_str cred "password" pw | None -> ());
        result := Some (Runtime.pg_join p gid ~credentials:cred));
    World.run w;
    !result
  in
  (match try_join "bad" None with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "join without credentials admitted"
  | None -> Alcotest.fail "join never returned");
  (match try_join "good" (Some "sesame") with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "valid join refused: %s" e
  | None -> Alcotest.fail "join never returned");
  match Runtime.pg_view members.(0) gid with
  | Some v -> Alcotest.(check int) "only the valid joiner got in" 3 (View.n_members v)
  | None -> Alcotest.fail "no view"

let test_pg_kill () =
  let w, members, gid = make ~sites:3 () in
  World.run_task w members.(0) (fun () -> Runtime.pg_kill members.(0) gid);
  World.run w;
  Array.iteri
    (fun i m ->
      Alcotest.(check bool) (Printf.sprintf "member %d terminated" i) false (Runtime.proc_alive m))
    members;
  (* The whole membership died: the group dissolves. *)
  Alcotest.(check bool) "group dissolved" true (Runtime.pg_view members.(0) gid = None)

let test_pg_add_member () =
  let w, members, gid = make ~sites:2 () in
  let outsider = World.proc w ~site:1 ~name:"added" in
  World.run_task w members.(0) (fun () ->
      Runtime.pg_add_member members.(0) gid (Runtime.proc_addr outsider));
  World.run w;
  (match Runtime.pg_view members.(0) gid with
  | Some v ->
    Alcotest.(check bool) "outsider added on its behalf" true
      (View.is_member v (Runtime.proc_addr outsider))
  | None -> Alcotest.fail "no view");
  (* The added process can use the group right away. *)
  let got = ref 0 in
  Array.iter (fun m -> Runtime.bind m e_app (fun _ -> ())) members;
  Runtime.bind outsider e_app (fun _ -> incr got);
  World.run_task w members.(0) (fun () ->
      ignore
        (Runtime.bcast members.(0) Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app
           (Message.create ()) ~want:Types.No_reply));
  World.run w;
  Alcotest.(check int) "added member receives group traffic" 1 !got

let test_wait_n_collection () =
  let w, members, gid = make ~sites:3 () in
  (* Each member replies after a rank-proportional delay; Wait_n 2 must
     return exactly when two replies are in. *)
  Array.iter
    (fun m ->
      Runtime.bind m e_app (fun req ->
          let rank = Option.value ~default:0 (Runtime.pg_rank m gid) in
          Runtime.spawn_task m (fun () ->
              Runtime.sleep m (rank * 300_000);
              let r = Message.create () in
              Message.set_int r "rank" rank;
              Runtime.reply m ~request:req r)))
    members;
  let got = ref None in
  let client = World.proc w ~site:0 ~name:"waiter" in
  World.run_task w client (fun () ->
      got :=
        Some
          (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app
             (Message.create ()) ~want:(Types.Wait_n 2)));
  World.run w;
  match !got with
  | Some (Runtime.Replies rs) ->
    Alcotest.(check int) "exactly two replies returned" 2 (List.length rs);
    let ranks = List.sort compare (List.map (fun (_, r) -> Option.get (Message.get_int r "rank")) rs) in
    Alcotest.(check (list int)) "the two fastest repliers" [ 0; 1 ] ranks
  | _ -> Alcotest.fail "collection failed"

let test_reply_cc_copies () =
  let w, members, gid = make ~sites:3 () in
  let copies = Array.make 3 0 in
  Array.iteri
    (fun i m -> Runtime.bind m Entry.generic_cc_reply (fun _ -> copies.(i) <- copies.(i) + 1))
    members;
  Array.iteri
    (fun i m ->
      Runtime.bind m e_app (fun req ->
          if i = 0 then begin
            let others = List.filter (fun q -> not (Addr.equal_proc q (Runtime.proc_addr m))) (
                match Runtime.pg_view m gid with Some v -> v.View.members | None -> [])
            in
            Runtime.reply_cc m ~request:req (Message.create ()) ~copy_to:others
          end
          else Runtime.null_reply m ~request:req))
    members;
  let client = World.proc w ~site:1 ~name:"cc-client" in
  World.run_task w client (fun () ->
      ignore
        (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app
           (Message.create ()) ~want:(Types.Wait_n 1)));
  World.run w;
  Alcotest.(check (list int)) "both cohorts got the reply copy" [ 0; 1; 1 ] (Array.to_list copies)

let test_filters_run_in_order () =
  let w, members, _gid = make ~sites:2 () in
  let log = ref [] in
  Runtime.add_filter members.(0) (fun _ ->
      log := "first" :: !log;
      true);
  Runtime.add_filter members.(0) (fun _ ->
      log := "second" :: !log;
      false);
  Runtime.add_filter members.(0) (fun _ ->
      log := "third" :: !log;
      true);
  Runtime.bind members.(0) e_app (fun _ -> log := "handler" :: !log);
  World.run_task w members.(1) (fun () ->
      ignore
        (Runtime.bcast members.(1) Types.Cbcast
           ~dest:(Addr.Proc (Runtime.proc_addr members.(0)))
           ~entry:e_app (Message.create ()) ~want:Types.No_reply));
  World.run w;
  (* All filters are consulted (List.for_all summarizes); a false stops
     delivery. *)
  Alcotest.(check bool) "first ran" true (List.mem "first" !log);
  Alcotest.(check bool) "second ran" true (List.mem "second" !log);
  Alcotest.(check bool) "handler suppressed" false (List.mem "handler" !log)

let test_unbound_entry_is_dropped () =
  let w, members, _gid = make ~sites:2 () in
  (* No binding at the destination: nothing should blow up. *)
  World.run_task w members.(1) (fun () ->
      ignore
        (Runtime.bcast members.(1) Types.Cbcast
           ~dest:(Addr.Proc (Runtime.proc_addr members.(0)))
           ~entry:(Entry.user 9) (Message.create ()) ~want:Types.No_reply));
  World.run w;
  Alcotest.(check bool) "destination alive" true (Runtime.proc_alive members.(0))

let test_kill_idempotent () =
  let w, members, _gid = make ~sites:2 () in
  Runtime.kill_proc members.(1);
  Runtime.kill_proc members.(1);
  World.run w;
  Alcotest.(check bool) "dead" false (Runtime.proc_alive members.(1))

let test_bcast_multi () =
  (* One call to a group the caller's site holds, a group it holds no
     copy of, and a standalone process: one send, one reply session.
     The relayed group's responders come from its relay, so the
     [Wait_all] ends once every one of them replied. *)
  let w = World.create ~seed:13L ~sites:3 () in
  let a1 = World.proc w ~site:0 ~name:"a1" and a2 = World.proc w ~site:1 ~name:"a2" in
  let c1 = World.proc w ~site:2 ~name:"c1" and c2 = World.proc w ~site:0 ~name:"c2" in
  let solo = World.proc w ~site:2 ~name:"solo" in
  let ga = ref None and gc = ref None in
  World.run_task w a1 (fun () -> ga := Some (Runtime.pg_create a1 "ga"));
  World.run_task w c1 (fun () -> gc := Some (Runtime.pg_create c1 "gc"));
  World.run w;
  let ga = Option.get !ga and gc = Option.get !gc in
  let join p name gid =
    World.run_task w p (fun () ->
        ignore (Runtime.pg_lookup p name);
        ignore (Runtime.pg_join p gid ~credentials:(Message.create ())))
  in
  join a2 "ga" ga;
  join c2 "gc" gc;
  (* solo is in gc as well: it replies once, like a process named
     twice. *)
  join solo "gc" gc;
  World.run_task w a2 (fun () -> ignore (Runtime.pg_lookup a2 "gc"));
  World.run w;
  Alcotest.(check bool) "the caller's site holds no copy of gc" true (Runtime.pg_view a2 gc = None);
  List.iter
    (fun p ->
      Runtime.bind p e_app (fun req ->
          let r = Message.create () in
          Message.set_str r "who" (Runtime.proc_name p);
          Runtime.reply p ~request:req r))
    [ a1; a2; c1; c2; solo ];
  let got = ref None in
  World.run_task w a2 (fun () ->
      got :=
        Some
          (Runtime.bcast_multi a2 Types.Cbcast
             ~dests:[ Addr.Group ga; Addr.Group gc; Addr.Proc (Runtime.proc_addr solo) ]
             ~entry:e_app (Message.create ()) ~want:Types.Wait_all));
  World.run_for w 5_000_000;
  match !got with
  | Some (Runtime.Replies rs) ->
    let names = List.sort compare (List.map (fun (_, r) -> Option.get (Message.get_str r "who")) rs) in
    Alcotest.(check (list string)) "one reply from every distinct responder"
      [ "a1"; "a2"; "c1"; "c2"; "solo" ] names
  | Some _ -> Alcotest.fail "multi-destination rpc failed"
  | None -> Alcotest.fail "multi-destination rpc never returned"

let test_bcast_multi_holds_flush () =
  (* An ABCAST parked behind a wedge holds off [flush] until it is
     delivered.  A [bcast_multi] issued after it, into another group,
     must count against [flush] like any send, not cancel the parked
     ABCAST's count when its own send leaves the CPU queue. *)
  let w = World.create ~seed:7L ~sites:3 () in
  let m = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let tag1_at_m1 = ref false in
  Runtime.bind m.(1) e_app (fun msg -> if Message.get_int msg "tag" = Some 1 then tag1_at_m1 := true);
  Runtime.bind m.(0) e_app ignore;
  Runtime.bind m.(2) e_app ignore;
  let g = ref None and h = ref None in
  World.run_task w m.(0) (fun () ->
      g := Some (Runtime.pg_create m.(0) "g");
      h := Some (Runtime.pg_create m.(0) "h"));
  World.run w;
  let g = Option.get !g and h = Option.get !h in
  let join p name gid =
    World.run_task w p (fun () ->
        ignore (Runtime.pg_lookup p name);
        ignore (Runtime.pg_join p gid ~credentials:(Message.create ())))
  in
  join m.(1) "g" g;
  join m.(2) "g" g;
  join m.(1) "h" h;
  World.run w;
  (* Site 2 is cut off, so the join wedges g until site 2 is declared
     failed. *)
  World.partition w [ 0; 1 ] [ 2 ];
  join (World.proc w ~site:1 ~name:"j") "g" g;
  World.run_for w 100_000;
  let tagged k =
    let msg = Message.create () in
    Message.set_int msg "tag" k;
    msg
  in
  let flushed = ref None in
  World.run_task w m.(0) (fun () ->
      ignore
        (Runtime.bcast m.(0) Types.Abcast ~dest:(Addr.Group g) ~entry:e_app (tagged 1)
           ~want:Types.No_reply);
      ignore
        (Runtime.bcast_multi m.(0) Types.Cbcast ~dests:[ Addr.Group h ] ~entry:e_app (tagged 2)
           ~want:Types.No_reply);
      Runtime.flush m.(0);
      flushed := Some !tag1_at_m1);
  World.run w;
  match !flushed with
  | Some delivered -> Alcotest.(check bool) "the parked ABCAST delivered before flush returns" true delivered
  | None -> Alcotest.fail "flush never returned"

(* A removal that names no responder leaves the call's verdict alone:
   once every responder failed without a reply, the call fails, even
   though the caller's site also saw an unrelated member leave another
   group. *)
let test_all_failed_despite_unrelated_leave () =
  let w = World.create ~seed:5L ~sites:4 () in
  let g1 = World.proc w ~site:1 ~name:"g1" and g2 = World.proc w ~site:2 ~name:"g2" in
  let h0 = World.proc w ~site:0 ~name:"h0" and h3 = World.proc w ~site:3 ~name:"h3" in
  let caller = World.proc w ~site:0 ~name:"caller" in
  let g = ref None and h = ref None in
  World.run_task w g1 (fun () -> g := Some (Runtime.pg_create g1 "g"));
  World.run_task w h0 (fun () -> h := Some (Runtime.pg_create h0 "h"));
  World.run w;
  let g = Option.get !g and h = Option.get !h in
  let join p name gid =
    World.run_task w p (fun () ->
        ignore (Runtime.pg_lookup p name);
        ignore (Runtime.pg_join p gid ~credentials:(Message.create ())))
  in
  join g2 "g" g;
  join h3 "h" h;
  World.run_task w caller (fun () -> ignore (Runtime.pg_lookup caller "g"));
  World.run w;
  (* The members take the request and never answer. *)
  List.iter (fun p -> Runtime.bind p e_app ignore) [ g1; g2 ];
  let got = ref None in
  World.run_task w caller (fun () ->
      got :=
        Some
          (Runtime.bcast caller Types.Cbcast ~dest:(Addr.Group g) ~entry:e_app (Message.create ())
             ~want:Types.Wait_all));
  World.run_for w 1_000_000;
  World.run_task w h3 (fun () -> Runtime.pg_leave h3 h);
  World.run_for w 1_000_000;
  World.crash_site w 1;
  World.crash_site w 2;
  World.run_for w 20_000_000;
  match !got with
  | Some Runtime.All_failed -> ()
  | Some (Runtime.Replies rs) -> Alcotest.failf "Replies with %d replies, not All_failed" (List.length rs)
  | None -> Alcotest.fail "the call never returned"

(* The relay dies before the relayed send reaches it, so nobody names
   the group's members: the call fails and the caller may retry. *)
let test_relay_death_fails_call () =
  let w = World.create ~seed:3L ~sites:3 () in
  let m1 = World.proc w ~site:1 ~name:"m1" and m2 = World.proc w ~site:2 ~name:"m2" in
  let caller = World.proc w ~site:0 ~name:"caller" in
  let g = ref None in
  World.run_task w m1 (fun () -> g := Some (Runtime.pg_create m1 "g"));
  World.run w;
  let g = Option.get !g in
  World.run_task w m2 (fun () ->
      ignore (Runtime.pg_lookup m2 "g");
      ignore (Runtime.pg_join m2 g ~credentials:(Message.create ())));
  World.run_task w caller (fun () -> ignore (Runtime.pg_lookup caller "g"));
  World.run w;
  List.iter (fun p -> Runtime.bind p e_app ignore) [ m1; m2 ];
  let got = ref None in
  World.run_task w caller (fun () ->
      got :=
        Some
          (Runtime.bcast caller Types.Cbcast ~dest:(Addr.Group g) ~entry:e_app (Message.create ())
             ~want:Types.Wait_all));
  World.run_for w 10_000;
  World.crash_site w 1;
  World.run_for w 20_000_000;
  match !got with
  | Some Runtime.All_failed -> ()
  | Some (Runtime.Replies rs) -> Alcotest.failf "Replies with %d replies, not All_failed" (List.length rs)
  | None -> Alcotest.fail "the call never returned"

let test_remote_exec () =
  let w = World.create ~seed:9L ~sites:2 () in
  ignore (Remote_exec.start (World.runtime w 0));
  ignore (Remote_exec.start (World.runtime w 1));
  let ran = ref None in
  Remote_exec.register_program "greeter" (fun fresh arg ->
      ran := Some (Runtime.proc_name fresh, Message.get_str arg "greeting"));
  let caller = World.proc w ~site:0 ~name:"spawner" in
  let spawned = ref None in
  World.run_task w caller (fun () ->
      let arg = Message.create () in
      Message.set_str arg "greeting" "hello";
      match Remote_exec.spawn_at caller ~site:1 ~program:"greeter" arg with
      | Ok p -> spawned := Some p
      | Error e -> Alcotest.failf "spawn: %s" e);
  World.run w;
  (match !spawned with
  | Some p -> Alcotest.(check int) "spawned at the requested site" 1 p.Addr.site
  | None -> Alcotest.fail "no spawn result");
  (match !ran with
  | Some (name, Some "hello") -> Alcotest.(check string) "program name" "greeter" name
  | _ -> Alcotest.fail "program did not run with its argument");
  (* Unknown programs are refused. *)
  let failed = ref false in
  World.run_task w caller (fun () ->
      match Remote_exec.spawn_at caller ~site:1 ~program:"nonsense" (Message.create ()) with
      | Error _ -> failed := true
      | Ok _ -> ());
  World.run w;
  Alcotest.(check bool) "unknown program refused" true !failed

(* Every member leaves: the site that installs the empty view drops the
   name with the group, so creating the name again there makes a fresh
   group instead of failing with "name exists". *)
let test_dissolved_name_reusable () =
  let w, members, gid = make ~sites:2 () in
  World.run_task w members.(0) (fun () -> Runtime.pg_leave members.(0) gid);
  World.run w;
  World.run_task w members.(1) (fun () -> Runtime.pg_leave members.(1) gid);
  World.run w;
  Alcotest.(check bool) "group dissolved" true (Runtime.pg_view members.(1) gid = None);
  let created = ref None and found = ref None in
  World.run_task w members.(1) (fun () ->
      created :=
        Some (try Ok (Runtime.pg_create members.(1) "api") with Invalid_argument e -> Error e);
      found := Some (Runtime.pg_lookup members.(1) "api"));
  World.run w;
  match !created with
  | Some (Ok gid') ->
    Alcotest.(check bool) "a new group" false (Addr.group_to_int gid' = Addr.group_to_int gid);
    (match Runtime.pg_view members.(1) gid' with
    | Some v -> Alcotest.(check int) "1-member view" 1 (View.n_members v)
    | None -> Alcotest.fail "no view of the new group");
    Alcotest.(check bool) "lookup finds the new group" true
      (match !found with
      | Some (Some g) -> Addr.group_to_int g = Addr.group_to_int gid'
      | Some None | None -> false)
  | Some (Error e) -> Alcotest.failf "pg_create refused: %s" e
  | None -> Alcotest.fail "pg_create never returned"

let suite =
  [
    Alcotest.test_case "join validator" `Quick test_join_validator;
    Alcotest.test_case "pg_kill" `Quick test_pg_kill;
    Alcotest.test_case "pg_add_member" `Quick test_pg_add_member;
    Alcotest.test_case "wait_n collection" `Quick test_wait_n_collection;
    Alcotest.test_case "reply_cc copies" `Quick test_reply_cc_copies;
    Alcotest.test_case "filters run in order" `Quick test_filters_run_in_order;
    Alcotest.test_case "unbound entry dropped" `Quick test_unbound_entry_is_dropped;
    Alcotest.test_case "kill idempotent" `Quick test_kill_idempotent;
    Alcotest.test_case "bcast to multiple destinations" `Quick test_bcast_multi;
    Alcotest.test_case "bcast_multi holds flush" `Quick test_bcast_multi_holds_flush;
    Alcotest.test_case "all responders failed despite an unrelated leave" `Quick
      test_all_failed_despite_unrelated_leave;
    Alcotest.test_case "relay death fails the call" `Quick test_relay_death_fails_call;
    Alcotest.test_case "remote exec" `Quick test_remote_exec;
    Alcotest.test_case "dissolved name can be created again" `Quick test_dissolved_name_reusable;
  ]
