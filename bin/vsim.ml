(* vsim — run ad-hoc virtual synchrony scenarios from the command line.

   Builds a process group with one member per site, drives a stream of
   multicasts through a chosen primitive, optionally injects failures
   and packet loss, and reports per-member delivery logs, agreement
   checks, and (with --trace) the full protocol trace.

     dune exec bin/vsim.exe -- --sites 3 --messages 12 --mode abcast
     dune exec bin/vsim.exe -- --crash-site 2 --crash-at 200 --trace
     dune exec bin/vsim.exe -- --loss 0.2 --mode cbcast
     dune exec bin/vsim.exe -- --sites 5 --shard 16
     dune exec bin/vsim.exe -- --wall --mode abcast *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Net = Vsync_sim.Net
module Trace = Vsync_sim.Trace
module Tracer = Vsync_obs.Tracer

let e_app = Entry.user 0

let mode_conv =
  let parse = function
    | "cbcast" -> Ok Types.Cbcast
    | "abcast" -> Ok Types.Abcast
    | "gbcast" -> Ok Types.Gbcast
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (cbcast|abcast|gbcast)" s))
  in
  Cmdliner.Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Types.mode_to_string m))

(* With --trace-out FILE, stream the typed event layer as JSONL into
   FILE for the duration of [f]. *)
let with_trace_out trace_out f =
  match trace_out with
  | None -> f None
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> f (Some (Vsync_obs.Jsonl.sink_to_channel oc)))

(* --nemesis SEED[:INTENSITY]: run the standard nemesis scenario — a
   fully-formed group under seeded traffic while a random fault plan
   runs — print the plan and the oracle's verdict, and exit non-zero on
   any violation. *)
let run_nemesis sites trace_out send_interval_ms (seed, intensity) =
  let send_interval_us = Option.map (fun ms -> ms * 1000) send_interval_ms in
  let outcome =
    with_trace_out trace_out (fun trace_sink ->
        Scenario.run ~sites ?send_interval_us ?intensity ?trace_sink ~seed ())
  in
  match outcome with
  | Error e ->
    Printf.eprintf "nemesis scenario: setup failed: %s\n" e;
    2
  | Ok r ->
  Printf.printf "nemesis scenario: seed %Ld, intensity %.2f, %d sites%s\n" seed
    (Option.value ~default:0.5 intensity)
    sites
    (match send_interval_ms with
    | Some ms -> Printf.sprintf ", %d ms send interval" ms
    | None -> "");
  Printf.printf "fault plan:\n%s" (Vsync_sim.Nemesis.plan_to_string r.plan);
  Printf.printf "sent %d, delivered %d, %.1fms virtual\n" r.sent r.delivered
    (float_of_int r.elapsed_us /. 1000.);
  (match Oracle.latencies_us r.oracle with
  | [] -> ()
  | lats ->
    let sorted = List.sort compare lats in
    let n = List.length sorted in
    Printf.printf "delivery latency: median %.1fms  p99 %.1fms\n"
      (float_of_int (List.nth sorted (n / 2)) /. 1000.)
      (float_of_int (List.nth sorted (min (n - 1) (n * 99 / 100))) /. 1000.));
  print_string (Oracle.report r.oracle r.violations);
  if r.violations = [] then 0 else 1

(* --shard N: deploy the sharded twenty-questions service over N ring
   partitions (3-replica groups placed by rendezvous hashing), drive a
   keyed workload, crash a site to force handoff, and verify the
   coverage scan still finds every key exactly once. *)
let run_shard sites seed partitions =
  if partitions < 1 then begin
    Printf.eprintf "--shard needs at least 1 partition\n";
    2
  end
  else begin
    let module Sharded = Twentyq.Sharded in
    let module Deployment = Twentyq.Sharded.Deployment in
    let w = World.create ~seed:(Int64.of_int seed) ~sites () in
    let d = Deployment.deploy w ~partitions ~replicas:(min 3 sites) () in
    if not (Deployment.settle d) then begin
      Printf.eprintf "sharded deployment failed to form\n";
      2
    end
    else begin
      Printf.printf "sharded twentyq: %d partitions over %d sites, %d replicas each\n" partitions
        sites
        (min 3 sites);
      for part = 0 to partitions - 1 do
        let hosts =
          List.map
            (fun m -> (Runtime.proc_addr (Sharded.member_proc m)).Addr.site)
            (Deployment.members d part)
        in
        Printf.printf "  partition %2d -> sites [%s]\n" part
          (String.concat " " (List.map string_of_int (List.sort compare hosts)))
      done;
      Deployment.enable_auto_handoff d;
      let cp = World.proc w ~site:0 ~name:"shard-client" in
      let c = Sharded.connect cp ~partitions in
      let n = 24 in
      let puts_ok = ref 0 in
      let verdicts = ref [] in
      let scan label =
        match Sharded.scan_keys c with
        | Ok keys ->
          let sorted = List.sort compare keys in
          let expected = List.sort compare (List.init n (fun i -> Printf.sprintf "key%02d" i)) in
          let ok = sorted = expected in
          verdicts := ok :: !verdicts;
          Printf.printf "[%8.1fms] scan %s: %d keys, exactly once: %b\n"
            (float_of_int (World.now w) /. 1000.)
            label (List.length keys) ok
        | Error e ->
          verdicts := false :: !verdicts;
          Printf.printf "scan %s failed: %s\n" label e
      in
      World.run_task w cp (fun () ->
          for i = 0 to n - 1 do
            match Sharded.put c [ Printf.sprintf "key%02d" i ] with
            | Ok () -> incr puts_ok
            | Error e -> Printf.printf "put key%02d failed: %s\n" i e
          done;
          Printf.printf "[%8.1fms] %d/%d keyed puts acknowledged\n"
            (float_of_int (World.now w) /. 1000.)
            !puts_ok n;
          (match Sharded.ask c "object=key07" with
          | Ok (a, hits) ->
            Printf.printf "keyed query object=key07: %s (%d hit)\n"
              (Twentyq.Database.answer_to_string a) hits
          | Error e -> Printf.printf "keyed query failed: %s\n" e);
          scan "after load");
      World.run w;
      (if sites > 1 then begin
         let victim = sites - 1 in
         Printf.printf "[%8.1fms] >>> crashing site %d; handoff re-replicates its partitions <<<\n"
           (float_of_int (World.now w) /. 1000.)
           victim;
         World.crash_site w victim;
         World.run_for w 5_000_000;
         if not (Deployment.settle d) then Printf.printf "redeployment incomplete\n";
         World.run_task w cp (fun () -> scan "after crash + handoff");
         World.run w
       end);
      let ok = !puts_ok = n && !verdicts <> [] && List.for_all Fun.id !verdicts in
      Printf.printf "sharded run: %s\n" (if ok then "OK" else "FAILED");
      if ok then 0 else 1
    end
  end

let run sites seed messages size mode loss crash_site crash_at_ms partition trace_on trace_out
    nemesis send_interval_ms shard wall =
  if send_interval_ms <> None && nemesis = None then begin
    Printf.eprintf "--send-interval-ms sets the nemesis scenario's traffic: it needs --nemesis\n";
    exit 2
  end;
  if wall && (nemesis <> None || shard <> None || crash_site <> None || partition <> None || loss > 0.0)
  then begin
    Printf.eprintf
      "--wall runs on real time: fault injection (--nemesis, --shard, --crash-site, --partition, \
       --loss) is simulator-only\n";
    exit 2
  end;
  match shard with
  | Some partitions -> run_shard sites seed partitions
  | None ->
  match nemesis with
  | Some spec -> run_nemesis sites trace_out send_interval_ms spec
  | None ->
  with_trace_out trace_out @@ fun trace_sink ->
  let net_config = { Net.default_config with Net.loss_probability = loss } in
  let backend =
    if wall then World.Wall Vsync_backend.Wallclock.default_config else World.Sim
  in
  (* On the wall clock there is no quiescence to run to — wait on the
     observable condition instead, in real time. *)
  let wait w pred =
    if wall then ignore (World.run_cond ~timeout_us:30_000_000 w pred) else World.run w
  in
  let w = World.create ~backend ~seed:(Int64.of_int seed) ~net_config ~sites () in
  let tr = Trace.obs (World.trace w) in
  if trace_on then begin
    Tracer.set_classes tr Vsync_obs.Event.all_classes;
    Tracer.set_enabled tr true
  end;
  (match trace_sink with
  | None -> ()
  | Some sink ->
    Tracer.add_sink tr sink;
    Tracer.set_enabled tr true);
  let members = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let logs = Array.make sites [] in
  Array.iteri
    (fun i m ->
      Runtime.bind m e_app (fun msg ->
          logs.(i) <- Option.value ~default:(-1) (Message.get_int msg "tag") :: logs.(i)))
    members;
  (* Form the group. *)
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "vsim"));
  wait w (fun () -> !gid <> None);
  let gid = Option.get !gid in
  let joined = ref 0 in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) "vsim");
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> incr joined
        | Error e -> Printf.eprintf "member %d failed to join: %s\n" i e)
  done;
  wait w (fun () -> !joined = sites - 1);
  Array.iteri
    (fun i m ->
      Runtime.pg_monitor m gid (fun v changes ->
          Printf.printf "[%8.1fms] m%d: view #%d %s\n"
            (float_of_int (World.now w) /. 1000.)
            i v.View.view_id
            (String.concat " " (List.map (Format.asprintf "%a" View.pp_change) changes))))
    members;
  (* Traffic: round-robin senders. *)
  let t0 = World.now w in
  Array.iteri
    (fun i m ->
      World.run_task w m (fun () ->
          let k = ref i in
          while !k < messages do
            Runtime.sleep m 20_000;
            let msg = Message.create () in
            Message.set_int msg "tag" !k;
            if size > 0 then Message.set_bytes msg "pad" (Bytes.make size 'x');
            ignore (Runtime.bcast m mode ~dest:(Addr.Group gid) ~entry:e_app msg ~want:Types.No_reply);
            k := !k + sites
          done))
    members;
  (* Failure injection. *)
  (match partition with
  | Some (left, right, dur_ms) ->
    let bad = List.filter (fun s -> s < 0 || s >= sites) (left @ right) in
    if bad <> [] then
      Printf.eprintf "ignoring bad --partition sites: %s\n"
        (String.concat " " (List.map string_of_int bad))
    else begin
      let show l = String.concat "," (List.map string_of_int l) in
      World.run_for w 100_000;
      Printf.printf "[%8.1fms] >>> partition [%s] | [%s] for %dms <<<\n"
        (float_of_int (World.now w) /. 1000.)
        (show left) (show right) dur_ms;
      World.partition w left right;
      World.run_for w (dur_ms * 1000);
      Printf.printf "[%8.1fms] >>> heal <<<\n" (float_of_int (World.now w) /. 1000.);
      World.heal w
    end
  | None -> ());
  (match crash_site with
  | Some s when s >= 0 && s < sites ->
    World.run_for w (crash_at_ms * 1000);
    Printf.printf "[%8.1fms] >>> crashing site %d <<<\n" (float_of_int (World.now w) /. 1000.) s;
    World.crash_site w s
  | Some s -> Printf.eprintf "ignoring bad --crash-site %d\n" s
  | None -> ());
  if wall then
    ignore
      (World.run_cond ~timeout_us:30_000_000 w (fun () ->
           Array.for_all (fun l -> List.length l = messages) logs))
  else World.run ~until:(World.now w + 60_000_000) w;
  (* Report. *)
  Printf.printf "\n%s time elapsed: %.1fms\n"
    (if wall then "real" else "virtual")
    (float_of_int (World.now w - t0) /. 1000.);
  Array.iteri
    (fun i log ->
      let l = List.rev log in
      Printf.printf "member %d delivered %d: [%s]\n" i (List.length l)
        (String.concat " " (List.map string_of_int l)))
    logs;
  (* A site evicted by the primary-partition rule (its copy torn down,
     never rejoined) is not a survivor: virtual synchrony promises
     agreement only among members that stayed in the view. *)
  let survivors =
    List.filter
      (fun i -> crash_site <> Some i && Runtime.pg_view members.(i) gid <> None)
      (List.init sites Fun.id)
  in
  List.iter
    (fun i ->
      if crash_site <> Some i && Runtime.pg_view members.(i) gid = None then
        Printf.printf "site %d was evicted from the group (partitioned minority)\n" i)
    (List.init sites Fun.id);
  let survivor_logs = List.map (fun i -> List.rev logs.(i)) survivors in
  (match survivor_logs with
  | first :: rest ->
    let same_set =
      List.for_all (fun l -> List.sort compare l = List.sort compare first) rest
    in
    let same_order = List.for_all (( = ) first) rest in
    Printf.printf "survivors delivered the same set: %b\n" same_set;
    if mode = Types.Abcast || mode = Types.Gbcast then
      Printf.printf "survivors delivered the identical order: %b\n" same_order
  | [] -> ());
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
    (List.filter (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "prim.") (World.total_counters w));
  if trace_on then begin
    Printf.printf "\n--- protocol trace ---\n";
    List.iter (fun r -> Format.printf "%a@." Vsync_obs.Event.pp_record r) (Tracer.records tr)
  end;
  0

open Cmdliner

let sites = Arg.(value & opt int 3 & info [ "sites" ] ~doc:"Number of simulated sites.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic simulation seed.")
let messages = Arg.(value & opt int 12 & info [ "messages" ] ~doc:"Total multicasts to send.")
let size = Arg.(value & opt int 64 & info [ "size" ] ~doc:"Payload padding in bytes.")

let mode =
  Arg.(value & opt mode_conv Types.Cbcast & info [ "mode" ] ~doc:"Primitive: cbcast, abcast or gbcast.")

let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Packet loss probability.")

let crash_site =
  Arg.(value & opt (some int) None & info [ "crash-site" ] ~doc:"Crash this site mid-run.")

let crash_at = Arg.(value & opt int 100 & info [ "crash-at" ] ~doc:"Crash time (virtual ms).")
let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the typed event trace (every class) at the end.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Stream the typed event layer to $(docv) as JSONL (one event per line).")

(* L|R:DUR_MS — comma-separated site lists on each side of the split,
   then how long the partition holds before the heal. *)
let partition_conv =
  let parse_sites part =
    let fields = String.split_on_char ',' part in
    let sites = List.filter_map int_of_string_opt fields in
    if List.compare_lengths sites fields = 0 && sites <> [] then Some sites else None
  in
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "bad partition spec %S (want L|R:DUR_MS)" s))
    | Some i -> (
      let split = String.sub s 0 i in
      let dur = String.sub s (i + 1) (String.length s - i - 1) in
      match (String.index_opt split '|', int_of_string_opt dur) with
      | Some j, Some dur_ms when dur_ms > 0 -> (
        let l = String.sub split 0 j in
        let r = String.sub split (j + 1) (String.length split - j - 1) in
        match (parse_sites l, parse_sites r) with
        | Some left, Some right -> Ok (left, right, dur_ms)
        | _ -> Error (`Msg (Printf.sprintf "bad partition site lists in %S" s)))
      | None, _ -> Error (`Msg (Printf.sprintf "partition spec %S has no '|' split" s))
      | _, (Some _ | None) -> Error (`Msg (Printf.sprintf "bad partition duration in %S" s)))
  in
  let print ppf (l, r, d) =
    let show sl = String.concat "," (List.map string_of_int sl) in
    Format.fprintf ppf "%s|%s:%d" (show l) (show r) d
  in
  Cmdliner.Arg.conv (parse, print)

let partition =
  Arg.(
    value
    & opt (some partition_conv) None
    & info [ "partition" ] ~docv:"L|R:DUR_MS"
        ~doc:
          "Split the network into site sets $(b,L) and $(b,R) (comma-separated) 100ms into the \
           traffic phase, heal after $(b,DUR_MS) virtual milliseconds, e.g. 0,1,2|3,4:800.")

let nemesis_conv =
  let parse s =
    let mk seed intensity =
      match (Int64.of_string_opt seed, intensity) with
      | None, _ -> Error (`Msg (Printf.sprintf "bad nemesis seed %S" seed))
      | Some sd, None -> Ok (sd, None)
      | Some sd, Some i -> (
        match float_of_string_opt i with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok (sd, Some f)
        | Some _ | None -> Error (`Msg (Printf.sprintf "bad nemesis intensity %S (want [0,1])" i)))
    in
    match String.index_opt s ':' with
    | None -> mk s None
    | Some i ->
      mk (String.sub s 0 i) (Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let print ppf (sd, it) =
    match it with
    | None -> Format.fprintf ppf "%Ld" sd
    | Some f -> Format.fprintf ppf "%Ld:%g" sd f
  in
  Cmdliner.Arg.conv (parse, print)

let nemesis =
  Arg.(
    value
    & opt (some nemesis_conv) None
    & info [ "nemesis" ] ~docv:"SEED[:INTENSITY]"
        ~doc:
          "Run the standard nemesis scenario instead: seeded random fault plan under steady \
           traffic, judged by the virtual-synchrony oracle.  Exits non-zero on any violation.")

let send_interval_ms =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "bad send interval %S (want a whole number of ms >= 1)" s))
    in
    Cmdliner.Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some positive) None
    & info [ "send-interval-ms" ] ~docv:"MS"
        ~doc:
          "With $(b,--nemesis): each member's mean gap between multicasts, drawn uniformly from \
           [$(docv)/2, 3·$(docv)/2] (default 150).  Gaps shorter than a send's CPU cost queue \
           sends back to back, so CBCASTs leave in packed runs.")

let shard =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard" ] ~docv:"N"
        ~doc:
          "Run the sharded twenty-questions workload instead: $(docv) consistent-hash ring \
           partitions as 3-replica groups, keyed puts and queries, then a site crash with \
           handoff.  Exits non-zero unless the coverage scan finds every key exactly once.")

let wall =
  Arg.(
    value
    & flag
    & info [ "wall" ]
        ~doc:
          "Run on the wall-clock backend instead of the simulator: real time, real asynchrony, no \
           determinism.  Incompatible with fault injection, which is simulator-only.")

let cmd =
  let doc = "drive a virtually synchronous process group in simulation" in
  Cmd.v
    (Cmd.info "vsim" ~doc)
    Term.(
      const run $ sites $ seed $ messages $ size $ mode $ loss $ crash_site $ crash_at $ partition
      $ trace $ trace_out $ nemesis $ send_interval_ms $ shard $ wall)

let () = exit (Cmd.eval' cmd)
