(* Primary-partition membership under network splits: the majority
   component keeps delivering, minority components wedge (parking
   origination), healed minorities rejoin through state transfer, and
   the oracle's no-split-brain / primary-partition-progress invariants
   hold across seeded partition/heal plans.

   The deterministic tests drive {!World.partition}/{!World.heal}
   directly; timings leave the ~2s failure-detection window plus a
   couple of flush round-trips before asserting. *)

open Vsync_core
open Vsync_toolkit
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Nemesis = Vsync_sim.Nemesis

let e_app = Entry.user 0

(* Stand up a world with one group member per site, typed-event tracing
   on (the oracle's no-split-brain check reads View_install events), and
   a per-member record of delivered tags. *)
let setup ?runtime_config ~seed ~sites name =
  let w = World.create ?runtime_config ~seed ~sites () in
  let tr = Vsync_sim.Trace.obs (World.trace w) in
  Vsync_obs.Tracer.set_classes tr [ Vsync_obs.Event.Proto; Vsync_obs.Event.Partition ];
  Vsync_obs.Tracer.set_enabled tr true;
  let members =
    Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s))
  in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) name));
  World.run w;
  let gid = Option.get !gid in
  let oracle = Oracle.create w ~gid in
  let got = Array.make sites [] in
  Array.iteri
    (fun i m ->
      Runtime.bind m e_app (fun msg ->
          got.(i) <- Option.get (Message.get_int msg "tag") :: got.(i);
          Oracle.note_delivery oracle m msg))
    members;
  Oracle.track oracle members.(0);
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) name);
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> Oracle.track oracle members.(i)
        | Error e -> Alcotest.failf "member %d failed to join: %s" i e)
  done;
  World.run w;
  (w, gid, members, oracle, got)

let send w oracle m ~gid ~tag =
  World.run_task w m (fun () ->
      let msg = Message.create () in
      Message.set_int msg "tag" tag;
      Oracle.note_send oracle m ~mode:Types.Cbcast ~tag;
      ignore
        (Runtime.bcast m Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app msg
           ~want:Types.No_reply))

let assert_oracle_clean oracle =
  match Oracle.check oracle with
  | [] -> ()
  | violations -> Alcotest.failf "%s" (Oracle.report oracle violations)

(* A 3/2 split: the majority side installs a shrunk view and keeps
   delivering; the minority side wedges (no new view, no deliveries of
   majority traffic) until the heal tears its dead copy down. *)
let test_majority_progress () =
  let w, gid, members, oracle, got = setup ~seed:0xA110L ~sites:5 "maj" in
  send w oracle members.(0) ~gid ~tag:0;
  World.run_for w 2_000_000;
  Array.iteri
    (fun i g -> Alcotest.(check (list int)) (Printf.sprintf "pre-split tag at m%d" i) [ 0 ] g)
    (Array.map List.rev got);
  let part_from = World.now w in
  World.partition w [ 0; 1; 2 ] [ 3; 4 ];
  (* Failure detection + the eviction flush: the majority reforms. *)
  World.run_for w 8_000_000;
  (match Runtime.pg_view members.(0) gid with
  | Some v -> Alcotest.(check int) "majority view shrank to 3" 3 (View.n_members v)
  | None -> Alcotest.fail "majority lost its group copy");
  (* The minority must NOT have installed a post-split view: wedged at
     the old 5-member view (its copy is only torn down after heal or
     probe exhaustion). *)
  (match Runtime.pg_view members.(3) gid with
  | Some v -> Alcotest.(check int) "minority still wedged at old view" 5 (View.n_members v)
  | None -> ());
  send w oracle members.(0) ~gid ~tag:1;
  send w oracle members.(1) ~gid ~tag:2;
  World.run_for w 3_000_000;
  Oracle.note_partition oracle ~from_us:part_from ~until_us:(World.now w) ~left:[ 0; 1; 2 ]
    ~right:[ 3; 4 ];
  List.iter
    (fun i ->
      Alcotest.(check (list int))
        (Printf.sprintf "majority m%d delivered split-era tags" i)
        [ 0; 1; 2 ]
        (List.sort compare got.(i)))
    [ 0; 1; 2 ];
  List.iter
    (fun i ->
      Alcotest.(check (list int))
        (Printf.sprintf "minority m%d saw none of the split-era traffic" i)
        [ 0 ] (List.rev got.(i)))
    [ 3; 4 ];
  World.heal w;
  World.run ~until:(World.now w + 40_000_000) w;
  (* Healed minority copies discover the newer primary view and tear
     down; the evicted members survive as processes. *)
  Alcotest.(check bool) "minority copy torn down" true (Runtime.pg_view members.(3) gid = None);
  Alcotest.(check bool) "evicted member still alive" true (Runtime.proc_alive members.(3));
  assert_oracle_clean oracle

(* Origination inside the wedged minority is parked behind the wedge
   and dies with the evicted copy; after the heal the evicted member
   rejoins through the state-transfer tool and catches up with zero
   duplicate or lost deliveries (the oracle re-baselines it via
   [retrack]). *)
let test_minority_parks_sends_and_rejoins () =
  let w, gid, members, oracle, got = setup ~seed:0xB112L ~sites:3 "rej" in
  send w oracle members.(0) ~gid ~tag:0;
  World.run_for w 2_000_000;
  World.partition w [ 0; 1 ] [ 2 ];
  World.run_for w 8_000_000;
  (* Origination at the minority member returns at once, but the
     send is parked: not even the sender delivers it. *)
  let returned = ref false in
  World.run_task w members.(2) (fun () ->
      let msg = Message.create () in
      Message.set_int msg "tag" 99;
      ignore
        (Runtime.bcast members.(2) Types.Cbcast ~dest:(Addr.Group gid) ~entry:e_app msg
           ~want:Types.No_reply);
      returned := true);
  World.run_for w 1_000_000;
  Alcotest.(check bool) "minority send returned" true !returned;
  Alcotest.(check bool) "minority send parked" false (List.mem 99 got.(2));
  send w oracle members.(0) ~gid ~tag:1;
  send w oracle members.(1) ~gid ~tag:2;
  World.run_for w 3_000_000;
  World.heal w;
  World.run_for w 10_000_000;
  Alcotest.(check bool) "evicted copy torn down after heal" true
    (Runtime.pg_view members.(2) gid = None);
  Array.iteri
    (fun i tags ->
      Alcotest.(check bool)
        (Printf.sprintf "parked send died with the evicted copy (m%d)" i)
        false (List.mem 99 tags))
    got;
  (* Rejoin with state transfer: the donor ships the tag history, so
     the rejoined member resumes with the majority's state. *)
  let state = ref [] in
  let segments_of cell =
    [
      ( "tags",
        (fun () -> List.map (fun t -> Bytes.of_string (string_of_int t)) (List.rev !cell)),
        fun chunks -> cell := List.rev_map (fun c -> int_of_string (Bytes.to_string c)) chunks );
    ]
  in
  let donor_tags = ref got.(0) in
  State_transfer.attach members.(0) ~gid ~segments:(segments_of donor_tags);
  let rejoin = ref None in
  World.run_task w members.(2) (fun () ->
      (* The teardown dropped this site's group state; re-resolve the
         name so the join contacts a current member site. *)
      ignore (Runtime.pg_lookup members.(2) "rej");
      rejoin :=
        Some
          (State_transfer.join_and_xfer members.(2) ~gid ~credentials:(Message.create ())
             ~segments:(segments_of state)));
  World.run w;
  (match !rejoin with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "rejoin failed: %s" e
  | None -> Alcotest.fail "rejoin never completed");
  Alcotest.(check (list int)) "transferred state matches the primary's history" [ 0; 1; 2 ]
    (List.rev !state);
  Oracle.retrack oracle members.(2);
  (* Post-rejoin traffic flows to all three again. *)
  got.(2) <- [];
  send w oracle members.(0) ~gid ~tag:3;
  send w oracle members.(2) ~gid ~tag:4;
  World.run w;
  Alcotest.(check (list int)) "rejoined member receives new traffic" [ 3; 4 ]
    (List.sort compare got.(2));
  (match Runtime.pg_view members.(0) gid with
  | Some v -> Alcotest.(check int) "full membership restored" 3 (View.n_members v)
  | None -> Alcotest.fail "no view after rejoin");
  assert_oracle_clean oracle

(* The coordinator is cut off mid-change: the majority moves on under a
   new coordinator, and when the heal lets the stale coordinator's
   frames back through they are fenced — its copy is torn down instead
   of imposing a competing view. *)
let test_stale_coordinator_fenced () =
  let w, gid, members, oracle, got = setup ~seed:0xC0DEL ~sites:3 "stale" in
  (* A join lands at the coordinator just before it is isolated, so a
     flush is in flight on the wrong side of the split. *)
  let joiner = World.proc w ~site:1 ~name:"j" in
  let jres = ref None in
  World.run_task w joiner (fun () ->
      ignore (Runtime.pg_lookup joiner "stale");
      jres := Some (Runtime.pg_join joiner gid ~credentials:(Message.create ())));
  World.run_for w 8_000;
  World.partition w [ 0 ] [ 1; 2 ];
  World.run_for w 10_000_000;
  (* Majority side reformed without the old coordinator. *)
  (match Runtime.pg_view members.(1) gid with
  | Some v ->
    Alcotest.(check bool) "old coordinator evicted" false
      (List.exists
         (fun (m : Addr.proc) -> m.Addr.site = 0)
         v.View.members)
  | None -> Alcotest.fail "majority lost its group copy");
  World.heal w;
  World.run ~until:(World.now w + 40_000_000) w;
  (* The stale coordinator's copy must be gone, not running a rival
     view; the survivors' views agree. *)
  Alcotest.(check bool) "stale coordinator torn down" true
    (Runtime.pg_view members.(0) gid = None);
  (match (Runtime.pg_view members.(1) gid, Runtime.pg_view members.(2) gid) with
  | Some v1, Some v2 ->
    Alcotest.(check int) "survivors agree on the view id" v1.View.view_id v2.View.view_id
  | _ -> Alcotest.fail "a survivor lost its group copy");
  (* And the survivors still make progress. *)
  send w oracle members.(1) ~gid ~tag:0;
  World.run w;
  Alcotest.(check bool) "survivor delivers post-heal" true (List.mem 0 got.(2));
  assert_oracle_clean oracle

(* Joins arriving on both sides of a split: the majority side admits
   its joiner; the minority side must not install any view admitting
   one while partitioned.  After the heal every surviving copy agrees
   on one membership. *)
let test_concurrent_joins_across_split () =
  let w, gid, members, oracle, _got = setup ~seed:0xD00DL ~sites:3 "spl" in
  ignore oracle;
  let wj = World.proc w ~site:0 ~name:"wj" (* majority-side joiner *) in
  let lj = World.proc w ~site:2 ~name:"lj" (* minority-side joiner *) in
  World.partition w [ 0; 1 ] [ 2 ];
  World.run_for w 6_000_000;
  let wres = ref None and lres = ref None in
  World.run_task w wj (fun () ->
      ignore (Runtime.pg_lookup wj "spl");
      wres := Some (Runtime.pg_join wj gid ~credentials:(Message.create ())));
  World.run_task w lj (fun () ->
      ignore (Runtime.pg_lookup lj "spl");
      lres := Some (Runtime.pg_join lj gid ~credentials:(Message.create ())));
  World.run_for w 6_000_000;
  (match !wres with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "majority-side join failed during split: %s" e
  | None -> Alcotest.fail "majority-side join hung");
  (* The minority-side join must not have been admitted by a wedged
     component: either still blocked or already refused. *)
  (match !lres with
  | Some (Ok ()) -> Alcotest.fail "minority-side join admitted during the split"
  | Some (Error _) | None -> ());
  (* No view installed on the minority side admits the joiner. *)
  (match Runtime.pg_view members.(2) gid with
  | Some v ->
    Alcotest.(check bool) "minority never admitted its joiner" false
      (List.exists (fun (m : Addr.proc) -> Addr.equal_proc m (Runtime.proc_addr lj)) v.View.members)
  | None -> ());
  World.heal w;
  World.run ~until:(World.now w + 40_000_000) w;
  (* Post-heal: one membership, shared by every copy that remains. *)
  let views =
    List.filter_map
      (fun p -> Runtime.pg_view p gid)
      [ members.(0); members.(1); wj ]
  in
  (match views with
  | [] -> Alcotest.fail "group dissolved"
  | v0 :: rest ->
    List.iter
      (fun (v : View.t) ->
        Alcotest.(check int) "post-heal views agree" v0.View.view_id v.View.view_id)
      rest;
    Alcotest.(check bool) "majority joiner retained" true
      (List.exists
         (fun (m : Addr.proc) -> Addr.equal_proc m (Runtime.proc_addr wj))
         v0.View.members));
  assert_oracle_clean oracle

(* Seeded partition/heal plans end-to-end: every plan in the sweep must
   uphold all oracle invariants — including no-split-brain and
   primary-partition-progress — and still make progress.  (Plans are
   drawn by Nemesis.random_plan, which now emits partition, one-way
   partition, and heal phases.) *)
let test_partition_nemesis_sweep () =
  let with_partition = ref 0 in
  for i = 0 to 24 do
    let seed = Int64.of_int (9300 + i) in
    match Scenario.run ~seed () with
    | Error e -> Alcotest.failf "seed %Ld: scenario setup failed: %s" seed e
    | Ok r ->
      if
        List.exists
          (function
            | { Nemesis.op = Nemesis.Partition _ | Nemesis.Partition_oneway _; _ } -> true
            | _ -> false)
          r.plan
      then incr with_partition;
      if r.violations <> [] then
        Alcotest.failf "seed %Ld:\n%s" seed (Oracle.report r.oracle r.violations);
      Alcotest.(check bool) (Printf.sprintf "seed %Ld made progress" seed) true (r.delivered > 0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sweep actually exercised partitions (%d/25 plans)" !with_partition)
    true
    (!with_partition >= 12)

(* Waiters parked on a minority copy are released by its teardown.  A
   newcomer's join, sent just as the split cuts it off from the
   coordinator, and a member's leave, asked while the minority is
   wedged, both stay pending until the heal shows the primary moved on;
   the teardown then refuses the join, returns the leave and holds no
   frame for the dead copy. *)
let test_teardown_releases_waiters () =
  let w, gid, members, _oracle, _got = setup ~seed:0xD1E5L ~sites:3 "wait" in
  World.partition w [ 0; 1 ] [ 2 ];
  let newcomer = World.proc w ~site:2 ~name:"late" in
  let joined = ref None and left = ref false in
  World.run_task w newcomer (fun () ->
      joined := Some (Runtime.pg_join newcomer gid ~credentials:(Message.create ())));
  World.run_for w 8_000_000;
  (match Runtime.pg_view members.(0) gid with
  | Some v -> Alcotest.(check int) "primary installed a view without site 2" 2 (View.n_members v)
  | None -> Alcotest.fail "primary lost its group copy");
  Alcotest.(check bool) "minority copy still wedged" true (Runtime.pg_view members.(2) gid <> None);
  World.run_task w members.(2) (fun () ->
      Runtime.pg_leave members.(2) gid;
      left := true);
  World.run_for w 1_000_000;
  Alcotest.(check bool) "leave pending while wedged" false !left;
  Alcotest.(check bool) "join pending while wedged" true (!joined = None);
  World.heal w;
  World.run_for w 10_000_000;
  Alcotest.(check bool) "pg_leave returned" true !left;
  Alcotest.(check bool) "m2 out of the group" false
    (match Runtime.pg_view members.(0) gid with
    | Some v -> View.is_member v (Runtime.proc_addr members.(2))
    | None -> true);
  (match !joined with
  | Some (Error e) ->
    Alcotest.(check string) "join refused by the teardown"
      "partitioned: evicted from primary partition" e
  | Some (Ok ()) -> Alcotest.fail "join admitted into the evicted copy"
  | None -> Alcotest.fail "pg_join never returned");
  Alcotest.(check int) "no held frames" 0 (Runtime.pending_held_frames (World.runtime w 2))

let suite =
  [
    Alcotest.test_case "majority progress under a 3/2 split" `Quick test_majority_progress;
    Alcotest.test_case "minority parks sends + rejoin via state transfer" `Quick
      test_minority_parks_sends_and_rejoins;
    Alcotest.test_case "stale coordinator is fenced, not split-brained" `Quick
      test_stale_coordinator_fenced;
    Alcotest.test_case "concurrent joins on both sides of a split" `Quick
      test_concurrent_joins_across_split;
    Alcotest.test_case "teardown releases the join and leave it parks" `Quick
      test_teardown_releases_waiters;
    Alcotest.test_case "partition/heal nemesis sweep (25 seeds)" `Slow
      test_partition_nemesis_sweep;
  ]
