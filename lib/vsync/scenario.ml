module Nemesis = Vsync_sim.Nemesis
module Rng = Vsync_util.Rng
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message

let e_app = Entry.user 0

type result = {
  plan : Nemesis.plan;
  violations : Oracle.violation list;
  oracle : Oracle.t;
  world : World.t;
  sent : int;
  delivered : int;
  elapsed_us : int;
}

let run ?(sites = 4) ?(horizon_us = 20_000_000) ?(settle_us = 30_000_000)
    ?(send_interval_us = 150_000) ?(payload_bytes = 256) ?plan ?(intensity = 0.5) ?trace_sink
    ?runtime_config ~seed () =
  let w = World.create ~seed ?runtime_config ~sites () in
  (* Run with the typed protocol events on (and only those — the mask
     excludes Note's anomaly and site-status events), so every sweep
     also exercises the event layer and the oracle's typed-stream checks
     have data.
     Enabling tracing draws no randomness, so seeded runs stay
     bit-identical to untraced ones.  An exporting caller widens the
     mask to the net and transport layers too. *)
  let tr = Vsync_sim.Trace.obs (World.trace w) in
  (match trace_sink with
  | None ->
    Vsync_obs.Tracer.set_classes tr [ Vsync_obs.Event.Proto; Vsync_obs.Event.Partition ]
  | Some sink ->
    Vsync_obs.Tracer.set_classes tr
      [ Vsync_obs.Event.Net; Vsync_obs.Event.Transport; Vsync_obs.Event.Proto;
        Vsync_obs.Event.Partition; Vsync_obs.Event.Note ];
    Vsync_obs.Tracer.add_sink tr sink);
  Vsync_obs.Tracer.set_enabled tr true;
  let members =
    Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "n%d" s))
  in
  let join_error = ref None in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "nemesis"));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "nemesis");
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> ()
        | Error e ->
          if !join_error = None then
            join_error := Some (Printf.sprintf "member n%d join: %s" i e))
  done;
  World.run w;
  match !join_error with
  | Some e -> Error e
  | None ->
  let oracle = Oracle.create w ~gid in
  Array.iter (fun m -> Oracle.bind_tap oracle m e_app (fun _ -> ())) members;
  let plan =
    match plan with
    | Some p -> p
    | None -> Nemesis.random_plan ~seed ~sites ~horizon_us ~intensity ()
  in
  World.apply_nemesis w plan;
  let t0 = World.now w in
  (* Vouch the qualifying splits to the oracle: symmetric, covering
     every site, one strict-majority side, alone in their window, and
     crash-free up to their heal — exactly the windows in which the
     primary-partition rule owes the majority side progress.  Pure plan
     arithmetic: no randomness, so seeded digests are unaffected. *)
  let all_sites = List.init sites (fun s -> s) in
  let heal_time at l r =
    List.fold_left
      (fun acc (e : Nemesis.event) ->
        if e.at >= at && e.at < acc then
          match e.op with
          | Nemesis.Heal -> e.at
          | Nemesis.Heal_partition (l', r')
            when (l' = l && r' = r) || (l' = r && r' = l) ->
            e.at
          | _ -> acc
        else acc)
      max_int plan
  in
  let split_windows =
    List.filter_map
      (fun (e : Nemesis.event) ->
        match e.op with
        | Nemesis.Partition (l, r) -> Some (e.at, heal_time e.at l r, l, r, true)
        | Nemesis.Partition_oneway (l, r) -> Some (e.at, heal_time e.at l r, l, r, false)
        | _ -> None)
      plan
  in
  let crashes =
    List.filter_map
      (fun (e : Nemesis.event) ->
        match e.op with Nemesis.Crash_site _ -> Some e.at | _ -> None)
      plan
  in
  List.iter
    (fun ((a, h, l, r, sym) as w') ->
      let covers = List.sort_uniq compare (l @ r) = all_sites in
      let maj = max (List.length l) (List.length r) in
      let alone =
        List.for_all (fun ((a', h', _, _, _) as w'') -> w'' == w' || h' <= a || a' >= h)
          split_windows
      in
      if
        sym && h < max_int && covers
        && 2 * maj > sites
        && alone
        && List.for_all (fun c -> c >= h) crashes
      then Oracle.note_partition oracle ~from_us:(t0 + a) ~until_us:(t0 + h) ~left:l ~right:r)
    split_windows;
  let next_tag = ref 0 in
  (* One traffic stream per member, each on its own RNG stream so one
     member's draws never perturb another's. *)
  let traffic_rng = Rng.create (Int64.add seed 0x7A11L) in
  let member_rngs = Array.init sites (fun _ -> Rng.split traffic_rng) in
  Array.iteri
    (fun i m ->
      let rng = member_rngs.(i) in
      World.run_task w m (fun () ->
          let continue = ref true in
          while !continue do
            Runtime.sleep m (Rng.int_in rng (send_interval_us / 2) (send_interval_us * 3 / 2));
            if World.now w >= t0 + horizon_us then continue := false
            else begin
              let tag = !next_tag in
              incr next_tag;
              let mode =
                match Rng.int rng 20 with
                | 0 -> Types.Gbcast
                | n when n < 8 -> Types.Abcast
                | _ -> Types.Cbcast
              in
              Oracle.note_send oracle m ~mode ~tag;
              let msg = Message.create () in
              Message.set_int msg "tag" tag;
              if payload_bytes > 0 then Message.set_bytes msg "pad" (Bytes.make payload_bytes 'x');
              ignore
                (Runtime.bcast m mode ~dest:(Addr.Group gid) ~entry:e_app msg
                   ~want:Types.No_reply)
            end
          done))
    members;
  World.run ~until:(t0 + horizon_us + settle_us) w;
  let violations = Oracle.check oracle in
  Ok
    {
      plan;
      violations;
      oracle;
      world = w;
      sent = !next_tag;
      delivered = Oracle.n_deliveries oracle;
      elapsed_us = World.now w - t0;
    }
