(* Table I — "Multicast overhead for selected tools": the number and
   kind of multicasts each toolkit routine performs.  These are
   protocol facts, so the measured column should match the paper's
   exactly (the mapping of our counters to the paper's terminology is
   described in EXPERIMENTS.md). *)

open Vsync_core
open Vsync_toolkit
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message

let measure w f =
  let before = Harness.snapshot_prims w in
  f ();
  World.run w;
  Harness.diff_prims (Harness.snapshot_prims w) before

let run () =
  let rows = ref [] in
  let note routine paper diffs =
    List.iter
      (fun (k, d) -> Harness.metric (Printf.sprintf "%s %s" routine k) "count" (float_of_int d))
      diffs;
    rows := (routine, paper, Harness.render_prims diffs) :: !rows
  in

  let c = Harness.make_cluster ~sites:3 () in
  let m0 = c.members.(0) and m1 = c.members.(1) in
  let client = World.proc c.w ~site:2 ~name:"t1client" in

  (* --- group RPC: bcast + replies --- *)
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun req ->
          match Vsync_msg.Message.get_str req "style" with
          | Some "null" -> Runtime.null_reply m ~request:req
          | _ -> Runtime.reply m ~request:req (Message.create ())))
    c.members;
  note "bcast = mcast(dests,msg,...) collect replies"
    "see Figure 2"
    (measure c.w (fun () ->
         World.run_task c.w client (fun () ->
             ignore
               (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group c.gid) ~entry:Harness.e_app
                  (Message.create ()) ~want:(Types.Wait_n 1)))));

  (* reply itself: isolate by measuring a want-ALL call: 1 CBCAST out,
     3 replies back. *)
  note "reply(msg,answ,alen)" "1 async CBCAST (1 dest)"
    (measure c.w (fun () ->
         World.run_task c.w client (fun () ->
             ignore
               (Runtime.bcast client Types.Cbcast ~dest:(Addr.Group c.gid) ~entry:Harness.e_app
                  (Message.create ()) ~want:Types.Wait_all))));

  (* --- process groups --- *)
  (* A dedicated owner: pg_kill at the end terminates the scratch
     group's members, and the main group's members must survive. *)
  let owner = World.proc c.w ~site:0 ~name:"t1owner" in
  let scratch = ref None in
  note "pg_create(\"name\")" "1 local RPC"
    (measure c.w (fun () ->
         World.run_task c.w owner (fun () -> scratch := Some (Runtime.pg_create owner "t1.scratch"))));

  note "pg_lookup(\"name\")  (remote miss -> query)" "1 local RPC [+ 1 CBCAST, 1 reply]"
    (measure c.w (fun () ->
         World.run_task c.w m1 (fun () -> ignore (Runtime.pg_lookup m1 "t1.scratch"))));

  let joiner = World.proc c.w ~site:1 ~name:"t1joiner" in
  note "pg_join(gid,credentials)" "1 CBCAST, 1 pg_addmemb (GBCAST), 1 reply"
    (measure c.w (fun () ->
         World.run_task c.w joiner (fun () ->
             ignore (Runtime.pg_join joiner (Option.get !scratch) ~credentials:(Message.create ())))));

  let third = World.proc c.w ~site:2 ~name:"t1third" in
  note "pg_addmember(who,gid)" "1 GBCAST"
    (measure c.w (fun () ->
         World.run_task c.w owner (fun () ->
             Runtime.pg_add_member owner (Option.get !scratch) (Runtime.proc_addr third))));

  note "pg_leave(gid)" "1 GBCAST"
    (measure c.w (fun () ->
         World.run_task c.w joiner (fun () -> Runtime.pg_leave joiner (Option.get !scratch))));

  note "pg_kill(gid,signal)" "1 ABCAST"
    (measure c.w (fun () ->
         World.run_task c.w owner (fun () -> Runtime.pg_kill owner (Option.get !scratch))));

  note "pg_monitor(gid,routine)" "1 local RPC"
    (measure c.w (fun () -> Runtime.pg_monitor m0 c.gid (fun _ _ -> ())));

  (* --- state transfer --- *)
  let c2 = Harness.make_cluster ~seed:0x5717L ~name:"t1.xfer" ~sites:2 () in
  Array.iter
    (fun m ->
      State_transfer.attach m ~gid:c2.gid
        ~segments:[ ("blob", (fun () -> [ Bytes.make 1024 's' ]), fun _ -> ()) ])
    c2.members;
  let xj = World.proc c2.w ~site:1 ~name:"t1xj" in
  note "join, xfer state" "1 GBCAST + state transfer"
    (measure c2.w (fun () ->
         World.run_task c2.w xj (fun () ->
             ignore
               (State_transfer.join_and_xfer xj ~gid:c2.gid ~credentials:(Message.create ())
                  ~segments:[ ("blob", (fun () -> []), fun _ -> ()) ]))));

  (* --- coordinator-cohort --- *)
  let c3 = Harness.make_cluster ~seed:0xC0C0L ~name:"t1.cc" ~sites:3 () in
  Array.iter
    (fun m ->
      let cc = Coordinator.attach m ~gid:c3.gid in
      Runtime.bind m Harness.e_app (fun request ->
          let plist = match Runtime.pg_view m c3.gid with Some v -> v.View.members | None -> [] in
          Coordinator.handle cc ~request ~plist ~action:(fun _ -> Message.create ()) ()))
    c3.members;
  let cc_client = World.proc c3.w ~site:1 ~name:"t1cc" in
  note "coord-cohort(msg,gid,plist,action,...)" "1 bcast + reply w/ cc copies"
    (measure c3.w (fun () ->
         World.run_task c3.w cc_client (fun () ->
             ignore
               (Runtime.bcast cc_client Types.Cbcast ~dest:(Addr.Group c3.gid)
                  ~entry:Harness.e_app (Message.create ()) ~want:(Types.Wait_n 1)))));

  (* --- replicated data --- *)
  let c4 = Harness.make_cluster ~seed:0x4EBDL ~name:"t1.rd" ~sites:3 () in
  let rd_tools =
    Array.map
      (fun m ->
        Repdata.attach m ~gid:c4.gid ~item:"x" ~order:Repdata.Causal
          ~apply:(fun _ -> ())
          ~read:(fun _ -> Message.create ())
          ())
      c4.members
  in
  note "repdata update (causal item)" "1 async CBCAST"
    (measure c4.w (fun () ->
         World.run_task c4.w c4.members.(0) (fun () ->
             Repdata.update rd_tools.(0) (Message.create ()))));
  note "repdata read by manager" "no cost"
    (measure c4.w (fun () -> ignore (Repdata.read_local rd_tools.(0) (Message.create ()))));
  let rd_client = World.proc c4.w ~site:1 ~name:"t1rd" in
  note "repdata read by other client" "1 CBCAST + 1 reply"
    (measure c4.w (fun () ->
         World.run_task c4.w rd_client (fun () ->
             ignore (Repdata.client_read rd_client ~gid:c4.gid ~item:"x" (Message.create ())))));

  (* --- semaphores --- *)
  let c5 = Harness.make_cluster ~seed:0x5E4AL ~name:"t1.sem" ~sites:3 () in
  Array.iter (fun m -> ignore (Semaphore.attach m ~gid:c5.gid)) c5.members;
  World.run c5.w;
  note "P(sid,name,...)" "1 ABCAST, all replies"
    (measure c5.w (fun () ->
         World.run_task c5.w c5.members.(0) (fun () ->
             ignore (Semaphore.p c5.members.(0) ~gid:c5.gid ~name:"s"))));
  note "V(sid,name)" "1 async CBCAST"
    (measure c5.w (fun () ->
         World.run_task c5.w c5.members.(0) (fun () ->
             Semaphore.v c5.members.(0) ~gid:c5.gid ~name:"s")));

  (* --- configuration --- *)
  let cfg_tools = Array.map (fun m -> Config_tool.attach m ~gid:c5.gid) c5.members in
  note "conf_update(item,value,len)" "1 GBCAST"
    (measure c5.w (fun () ->
         World.run_task c5.w c5.members.(0) (fun () ->
             Config_tool.update cfg_tools.(0) ~key:"k" (Message.Int 1))));
  note "conf_read(item)" "no cost"
    (measure c5.w (fun () -> ignore (Config_tool.read cfg_tools.(0) ~key:"k")));

  (* --- news --- *)
  let news_seed = 0x9E05L in
  Harness.note_seed news_seed;
  let w6 = World.create ~seed:news_seed ~sites:2 () in
  let agents = Array.init 2 (fun s -> News.start_agent (World.runtime w6 s)) in
  World.run w6;
  let sub = World.proc w6 ~site:1 ~name:"t1sub" in
  note "subscribe(\"subject\",routine)" "1 local RPC"
    (measure w6 (fun () -> News.subscribe agents.(1) sub ~subject:"x" (fun _ -> ())));
  let poster = World.proc w6 ~site:0 ~name:"t1post" in
  note "post_news(subject,msg)" "1 async CBCAST or ABCAST"
    (measure w6 (fun () ->
         World.run_task w6 poster (fun () -> News.post poster ~subject:"x" (Message.create ()))));

  Harness.print_table ~title:"Table I: multicast overhead for selected tools"
    ~header:[ "Tool / routine"; "Paper says"; "Measured (this repo)" ]
    (List.rev_map (fun (a, b, d) -> [ a; b; d ]) !rows)
