(* The six workloads, and the deployment each one drives.

   Every workload forms one group (a member per site) on a fresh world
   and offers it traffic as a client would: [bcast]/[bcast_wait] calls
   from tasks of the member processes, timed by the ledger from outside.
   Inputs — arrival times, payload sizes, which ops are ABCASTs — come
   from the seed; the world's own seed is the same
   number, so the wall backend's jitter follows it too.

   Wall workloads run in real time with in-process delivery (0 µs
   within a site, 1 µs + 0–1 µs jitter between sites) and the runtime's
   CPU model zeroed.  Sim workloads run the default network (16 ms
   between sites, 10 µs within one, 4 KB packets) and the calibrated
   1987 CPU model, in virtual time. *)

open Vsync_core
module Message = Vsync_msg.Message
module Rng = Vsync_util.Rng
module Metrics = Vsync_obs.Metrics
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event
module Backend = Vsync_backend.Backend
module Wallclock = Vsync_backend.Wallclock
module Condition = Vsync_tasks.Condition

type clock = Virtual | Wall

let clock_name = function Virtual -> "virtual" | Wall -> "wall"

let wall_backend =
  World.Wall
    { Wallclock.default_config with wc_intra_site_us = 0; wc_inter_site_us = 1; wc_jitter_us = 1 }

let wall_runtime =
  {
    Runtime.default_config with
    Runtime.cpu_send_us = 0;
    cpu_recv_us = 0;
    cpu_us_per_kb = 0;
    cpu_us_per_extra_packet = 0;
  }

let wire_keys = [| "packets"; "data_frames"; "ack_frames"; "retransmits" |]

let gauge_names =
  [|
    "transport.sendq_depth"; "transport.credit_waiting"; "runtime.ab_queue"; "runtime.ab_inflight";
  |]

(* One pass of a workload: everything the metrics are computed from,
   summed over the worlds the pass builds. *)
type pass = {
  acc : Tally.acc;
  mutable setups : float list;  (** real s to build a world and form its group *)
  mutable joins : int list;  (** world µs per [pg_join] *)
  mutable failovers : int list;  (** world µs from a crash to service restored *)
  mutable window_deliveries : int;
  mutable window_us : int;
  mutable members : int;  (** initial members, for per-member rates *)
  mutable deliveries : int;  (** over the load spans *)
  mutable cpu_s : float;  (** process CPU over the load spans *)
  mutable real_s : float;  (** real time over the load spans *)
  mutable busy_frac : float;  (** modelled CPU busy ÷ load span, max over sites and worlds *)
  mutable events_fired : int;  (** simulator events over the load spans *)
  mutable wire : int array;  (** transport counters over the load spans, see [wire_keys] *)
  mutable peak_live_words : int;
  mutable gauge_peaks : int array;  (** see [gauge_names] *)
  mutable attribs : Attrib.t list;
}

let new_pass () =
  {
    acc = Tally.acc ();
    setups = [];
    joins = [];
    failovers = [];
    window_deliveries = 0;
    window_us = 0;
    members = 0;
    deliveries = 0;
    cpu_s = 0.0;
    real_s = 0.0;
    busy_frac = 0.0;
    events_fired = 0;
    wire = Array.make (Array.length wire_keys) 0;
    peak_live_words = 0;
    gauge_peaks = Array.make (Array.length gauge_names) 0;
    attribs = [];
  }

type opts = {
  seed : int;
  seconds : int;
  traced : bool;
  jsonl : out_channel option;
  first : bool;
      (** the pass's first world: a traced one writes the timeline and,
          on sim-churn, runs the virtual-synchrony oracle *)
}

type rig = {
  w : World.t;
  tally : Tally.t;
  members : Tally.member array;  (** one per site, in site order *)
  attrib : Attrib.t option;
}

let group_name = "ledger"

(* Sampled at every driving slice; a gauge's peak is its largest value
   at any site. *)
let sample_gauges rig p =
  for s = 0 to World.n_sites rig.w - 1 do
    let m = Runtime.metrics (World.runtime rig.w s) in
    Array.iteri
      (fun i name ->
        match Metrics.read_int m name with
        | Some v when v > p.gauge_peaks.(i) -> p.gauge_peaks.(i) <- v
        | Some _ | None -> ())
      gauge_names
  done

let drive rig p ~slice_us ~timeout_us pred =
  World.run_cond ~slice_us ~timeout_us rig.w (fun () ->
      sample_gauges rig p;
      pred ())

(* The traced pass's only tracer hookup: the typed classes a layer
   boundary emits (not [Note], whose string formatting would dominate
   the cost), streamed into the attribution sink. *)
let trace_on w ~sites ~jsonl =
  let a = Attrib.create ?jsonl ~sites () in
  let tr = Vsync_sim.Trace.obs (World.trace w) in
  Tracer.set_classes tr [ Event.Net; Event.Transport; Event.Proto; Event.Partition ];
  Tracer.add_sink tr (Attrib.on_event a);
  Tracer.set_enabled tr true;
  a

let join rig p proc =
  ignore (Runtime.pg_lookup proc group_name);
  let t0 = World.now rig.w in
  match Runtime.pg_join proc rig.tally.Tally.gid ~credentials:(Message.create ()) with
  | Ok () -> p.joins <- (World.now rig.w - t0) :: p.joins
  | Error e -> Tally.violation p.acc "join refused: %s" e

let formed rig n =
  List.for_all
    (fun (m : Tally.member) ->
      match Runtime.pg_view m.Tally.proc rig.tally.Tally.gid with
      | Some v -> View.n_members v = n
      | None -> false)
    rig.tally.Tally.members

(* Build a world and form the group, timing it as set-up. *)
let form p o ~clock ~sites ~rpc =
  let t0 = Unix.gettimeofday () in
  let seed = Int64.of_int o.seed in
  let w =
    match clock with
    | Virtual -> World.create ~seed ~sites ()
    | Wall -> World.create ~backend:wall_backend ~runtime_config:wall_runtime ~seed ~sites ()
  in
  let attrib =
    if o.traced then Some (trace_on w ~sites ~jsonl:(if o.first then o.jsonl else None)) else None
  in
  let procs = Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = ref None in
  World.run_task w procs.(0) (fun () -> gid := Some (Runtime.pg_create procs.(0) group_name));
  let gid = match !gid with Some g -> g | None -> failwith "ledger: pg_create did not return" in
  let tally = Tally.create p.acc w gid in
  tally.Tally.attrib <- attrib;
  let members =
    Array.map
      (fun proc ->
        let on_msg msg = if rpc then Runtime.reply proc ~request:msg (Message.create ()) in
        Tally.add_member tally ~rpc ~on_msg proc)
      procs
  in
  let rig = { w; tally; members; attrib } in
  Array.iteri (fun i proc -> if i > 0 then World.run_task w proc (fun () -> join rig p proc)) procs;
  if not (World.run_cond ~timeout_us:30_000_000 w (fun () -> formed rig sites)) then
    failwith "ledger: group did not form";
  Array.iter (Tally.track_view tally) members;
  p.setups <- (Unix.gettimeofday () -. t0) :: p.setups;
  p.members <- sites;
  Option.iter (fun a -> p.attribs <- a :: p.attribs) attrib;
  rig

(* Set-up time is the median of at least this many formations. *)
let min_setups = 5

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wire_now w =
  let totals = Array.make (Array.length wire_keys) 0 in
  for s = 0 to World.n_sites w - 1 do
    let stats = Runtime.transport_stats (World.runtime w s) in
    Array.iteri
      (fun i k -> totals.(i) <- totals.(i) + Option.value ~default:0 (List.assoc_opt k stats))
      wire_keys
  done;
  totals

let cpu_busy w = Array.init (World.n_sites w) (fun s -> Runtime.cpu_busy_us (World.runtime w s))

let events_now rig =
  match World.kind rig.w with
  | Backend.Sim -> Vsync_sim.Engine.events_fired (World.engine rig.w)
  | Backend.Wall -> 0

(* The load span of one world: [load] starts the traffic and drives the
   throughput window; the span ends when every op has completed (or the
   drain times out, and the rest count as failed).  Process CPU, wire
   counters and the peak live heap are taken around it. *)
let measure p rig ~drain_us load =
  let w = rig.w in
  let c0 = cpu_now () and r0 = Unix.gettimeofday () in
  let wire0 = wire_now w and busy0 = cpu_busy w and ev0 = events_now rig and t0 = World.now w in
  let d0 = rig.tally.Tally.deliveries in
  rig.tally.Tally.counting <- true;
  load ();
  rig.tally.Tally.counting <- false;
  p.window_deliveries <- p.window_deliveries + rig.tally.Tally.window_deliveries;
  (* The heap at the end of the window holds the workload's backlog;
     the collection is kept out of the CPU account. *)
  let g0 = cpu_now () in
  Gc.full_major ();
  p.peak_live_words <- max p.peak_live_words (Gc.stat ()).Gc.live_words;
  let gc_s = cpu_now () -. g0 in
  ignore
    (drive rig p ~slice_us:10_000 ~timeout_us:drain_us (fun () ->
         Hashtbl.length rig.tally.Tally.inflight = 0));
  let span_us = World.now w - t0 in
  p.cpu_s <- p.cpu_s +. (cpu_now () -. c0 -. gc_s);
  p.real_s <- p.real_s +. (Unix.gettimeofday () -. r0);
  p.deliveries <- p.deliveries + rig.tally.Tally.deliveries - d0;
  p.events_fired <- p.events_fired + events_now rig - ev0;
  Array.iteri (fun i v -> p.wire.(i) <- p.wire.(i) + v - wire0.(i)) (wire_now w);
  Array.iteri
    (fun s b ->
      p.busy_frac <- max p.busy_frac (float_of_int (b - busy0.(s)) /. float_of_int (max 1 span_us)))
    (cpu_busy w);
  Tally.finish rig.tally

(* Run the throughput window: [us] world µs of traffic. *)
let window p rig ~us =
  ignore (drive rig p ~slice_us:100_000 ~timeout_us:us (fun () -> false));
  p.window_us <- p.window_us + us

let payload rng ~mean = Bytes.make (Rng.int_in rng (mean * 3 / 4) (mean * 5 / 4)) 'x'

(* Defer a wake-up to its own event, so a sender never re-enters the
   runtime from inside the delivery that completed its op. *)
let wake w c = ignore (Backend.schedule (World.backend w) ~delay:0 (fun () -> Condition.signal c))

(* The protocol of a sender's k-th op, asked in order: in each run of
   [every] ops one, at a seeded position, is [odd] and the rest
   [rest]. *)
let mix rng ~every ~odd ~rest =
  let at = ref 0 in
  fun k ->
    if k mod every = 0 then at := Rng.int rng every;
    if k mod every = !at then odd else rest

(* --- closed loops --- *)

let rpc_loop p o rig ~window_us =
  let w = rig.w in
  let rng = Rng.create (Int64.of_int o.seed) in
  let client = rig.members.(0) in
  let t_end = World.now w + window_us and finished = ref false in
  measure p rig ~drain_us:5_000_000 (fun () ->
      World.run_task w client.Tally.proc (fun () ->
          while World.now w < t_end do
            Tally.rpc rig.tally client ~site:0 ~due:(World.now w) ~payload:(payload rng ~mean:64)
          done;
          finished := true);
      window p rig ~us:window_us;
      ignore (drive rig p ~slice_us:2_000 ~timeout_us:5_000_000 (fun () -> !finished)))

(* Every member keeps [depth] ops outstanding, one ABCAST to seven
   CBCASTs.  The loop stops at [t_end] or after [limit] ops in all. *)
let flood o rig ~depth ~t_end ~limit =
  let w = rig.w in
  let n = Array.length rig.members in
  let outstanding = Array.make n 0 and cond = Array.init n (fun _ -> Condition.create ()) in
  rig.tally.Tally.on_done <-
    (fun op _ ->
      outstanding.(op.Tally.site) <- outstanding.(op.Tally.site) - 1;
      wake w cond.(op.Tally.site));
  let issued = ref 0 in
  let stop () = World.now w >= t_end || !issued >= limit in
  Array.iteri
    (fun s (m : Tally.member) ->
      let rng = Rng.create (Int64.of_int ((o.seed * 7919) + s)) in
      let mode_of = mix rng ~every:8 ~odd:Types.Abcast ~rest:Types.Cbcast in
      World.run_task w m.Tally.proc (fun () ->
          let k = ref 0 in
          while not (stop ()) do
            if outstanding.(s) >= depth then Condition.wait cond.(s)
            else begin
              let mode = mode_of !k in
              incr k;
              incr issued;
              outstanding.(s) <- outstanding.(s) + 1;
              Tally.multicast rig.tally m ~site:s ~mode ~due:(World.now w)
                ~payload:(payload rng ~mean:64)
            end
          done))
    rig.members;
  issued

(* --- open loops --- *)

(* Poisson arrivals at [rate] per second over [window_us], from [t0]. *)
let arrivals rng ~rate ~t0 ~window_us =
  let rec go t acc =
    let t = t + int_of_float (Rng.exponential rng ~mean:(1e6 /. rate)) in
    if t >= t0 + window_us then List.rev acc else go t (t :: acc)
  in
  go t0 []

(* A sender that sleeps until each due time, then issues; [mode_of k]
   picks the protocol of its k-th op.  Latency counts from the due
   time, so a stalled sender's backlog is charged to the stall. *)
let open_loop rig (m : Tally.member) ~site ~dues ~mode_of ~rng ~mean =
  let w = rig.w in
  World.run_task w m.Tally.proc (fun () ->
      List.iteri
        (fun k due ->
          let now = World.now w in
          if due > now then Runtime.sleep m.Tally.proc (due - now);
          Tally.multicast rig.tally m ~site ~mode:(mode_of k) ~due ~payload:(payload rng ~mean))
        dues)

(* --- the workloads --- *)

type workload = {
  name : string;
  clock : clock;
  sites : int;
  worlds : int -> int;  (** worlds a pass builds, from --seconds *)
  run : pass -> opts -> unit;  (** one world *)
}

let wall_rpc =
  {
    name = "wall-rpc";
    clock = Wall;
    sites = 3;
    worlds = (fun _ -> 1);
    run =
      (fun p o ->
        let rig = form p o ~clock:Wall ~sites:3 ~rpc:true in
        rpc_loop p o rig ~window_us:(o.seconds * 1_000_000));
  }

let wall_flood =
  {
    name = "wall-flood";
    clock = Wall;
    sites = 3;
    worlds = (fun _ -> 1);
    run =
      (fun p o ->
        let rig = form p o ~clock:Wall ~sites:3 ~rpc:false in
        let window_us = o.seconds * 1_000_000 in
        measure p rig ~drain_us:5_000_000 (fun () ->
            ignore (flood o rig ~depth:16 ~t_end:(World.now rig.w + window_us) ~limit:max_int);
            window p rig ~us:window_us));
  }

(* The same traffic as wall-flood, a fixed number of ops in virtual
   time: throughput counts until the last op completes. *)
let sim_flood =
  {
    name = "sim-flood";
    clock = Virtual;
    sites = 3;
    worlds = (fun _ -> 1);
    run =
      (fun p o ->
        let rig = form p o ~clock:Virtual ~sites:3 ~rpc:false in
        let limit = max 3_000 (40_000 * o.seconds) in
        measure p rig ~drain_us:60_000_000 (fun () ->
            let t0 = World.now rig.w in
            let issued = flood o rig ~depth:16 ~t_end:max_int ~limit in
            ignore
              (drive rig p ~slice_us:100_000 ~timeout_us:3_600_000_000 (fun () ->
                   !issued >= limit && Hashtbl.length rig.tally.Tally.inflight = 0));
            p.window_us <- p.window_us + (World.now rig.w - t0)));
  }

(* One ABCAST sender per site at an aggregate [rate], for a 20 s
   window per world; the backlog then drains. *)
let overload ~name ~rate ~worlds =
  {
    name;
    clock = Virtual;
    sites = 3;
    worlds;
    run =
      (fun p o ->
        let rig = form p o ~clock:Virtual ~sites:3 ~rpc:false in
        let window_us = 20_000_000 in
        measure p rig ~drain_us:3_600_000_000 (fun () ->
            let t0 = World.now rig.w in
            Array.iteri
              (fun s m ->
                let rng = Rng.create (Int64.of_int ((o.seed * 7919) + s)) in
                let dues = arrivals rng ~rate:(rate /. 3.0) ~t0 ~window_us in
                open_loop rig m ~site:s ~dues ~mode_of:(fun _ -> Types.Abcast) ~rng ~mean:128)
              rig.members;
            window p rig ~us:window_us));
  }

(* Five sites; senders at sites 0 and 1 send three ABCASTs to one
   CBCAST at 20/s each for 60 s.  Site 4 crashes at 10 s, restarts at
   25 s and rejoins; a guest joins at site 3 at 40 s and leaves at
   50 s.  The senders keep their schedule through the fault, so the
   stall is charged to the ops due during it.  With ABCASTs the
   majority, the median op is an ABCAST rather than the edge between
   the two protocols' latencies, and the ops the crash stalls lie well
   inside the top percent. *)
let churn p o =
  let rig = form p o ~clock:Virtual ~sites:5 ~rpc:false in
  let w = rig.w and tally = rig.tally in
  let oracle =
    if o.traced && o.first then begin
      let orc = Oracle.create ~tag_field:Tally.op_field w ~gid:tally.Tally.gid in
      Array.iter (fun (m : Tally.member) -> Oracle.track orc m.Tally.proc) rig.members;
      Some orc
    end
    else None
  in
  tally.Tally.oracle <- oracle;
  (* Service is restored when an ABCAST issued after the crash has
     reached every survivor. *)
  let crash_at = ref (-1) and restored = ref false in
  tally.Tally.on_done <-
    (fun op at ->
      if
        (not !restored) && !crash_at >= 0 && op.Tally.mode = Types.Abcast
        && op.Tally.due >= !crash_at
      then begin
        restored := true;
        p.failovers <- (at - !crash_at) :: p.failovers
      end);
  let member_join proc =
    let m = Tally.add_member tally proc in
    World.run_task w proc (fun () ->
        join rig p proc;
        Tally.track_view tally m;
        Option.iter (fun orc -> Oracle.track orc proc) oracle);
    m
  in
  let t0 = World.now w in
  let run_to s =
    let until = t0 + (s * 1_000_000) in
    ignore (drive rig p ~slice_us:100_000 ~timeout_us:(until - World.now w) (fun () -> false))
  in
  measure p rig ~drain_us:30_000_000 (fun () ->
      for s = 0 to 1 do
        let rng = Rng.create (Int64.of_int ((o.seed * 7919) + s)) in
        let dues = arrivals rng ~rate:20.0 ~t0 ~window_us:60_000_000 in
        let mode_of = mix rng ~every:4 ~odd:Types.Cbcast ~rest:Types.Abcast in
        open_loop rig rig.members.(s) ~site:s ~dues ~rng ~mean:64 ~mode_of
      done;
      run_to 10;
      crash_at := World.now w;
      World.crash_site w 4;
      Tally.excuse tally rig.members.(4);
      Option.iter
        (fun a ->
          Attrib.crashed a ~at:!crash_at;
          Attrib.reset_site a ~site:4)
        rig.attrib;
      run_to 25;
      World.restart_site w 4;
      Option.iter (fun a -> Attrib.reset_site a ~site:4) rig.attrib;
      ignore (member_join (World.proc w ~site:4 ~name:"m4b"));
      run_to 40;
      let guest = member_join (World.proc w ~site:3 ~name:"guest") in
      run_to 50;
      World.run_task w guest.Tally.proc (fun () ->
          Runtime.pg_leave guest.Tally.proc tally.Tally.gid;
          Tally.excuse tally guest);
      run_to 60;
      p.window_us <- p.window_us + 60_000_000);
  Option.iter
    (fun orc ->
      (* Stability trails the last delivery; the quiescence checks
         need it settled. *)
      World.run_for w 5_000_000;
      List.iter
        (fun v -> Tally.violation p.acc "oracle: %s" (Format.asprintf "%a" Oracle.pp_violation v))
        (Oracle.check orc))
    oracle

let sim_churn ~worlds = { name = "sim-churn"; clock = Virtual; sites = 5; worlds; run = churn }

let all =
  [
    wall_rpc;
    wall_flood;
    sim_flood;
    overload ~name:"sim-overload-2x" ~rate:194.0 ~worlds:(fun s -> 10 * s);
    overload ~name:"sim-overload-10x" ~rate:970.0 ~worlds:(fun s -> 2 * s);
    sim_churn ~worlds:(fun s -> 8 * s);
  ]

let find name = List.find_opt (fun wl -> String.equal wl.name name) all

(* One pass: the workload's worlds, each from its own seed, plus
   formation-only worlds so that set-up is a median of several.  The
   oracle keeps every delivery history, too costly for more than the
   first world, and one timeline keeps the trace file readable. *)
let run_pass wl o =
  let p = new_pass () in
  let worlds = max 1 (wl.worlds o.seconds) in
  let world rep = { o with seed = (o.seed * 1_000) + rep; first = rep = 1 } in
  for rep = 1 to worlds do
    wl.run p (world rep)
  done;
  if not o.traced then
    for rep = worlds + 1 to min_setups do
      ignore (form p (world rep) ~clock:wl.clock ~sites:wl.sites ~rpc:false)
    done;
  p
