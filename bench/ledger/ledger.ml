(* The performance ledger: one benchmark for end-to-end latency and
   throughput on both backends, attributed layer by layer from outside.

     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     ledger.exe --check       Figure 3 from the attribution
     ledger.exe --selftest    determinism smoke (dune runtest)

   A run prints a table of its metrics, then, as the last line of
   standard output, one JSON object: whether every correctness check
   held, the ops attempted and failed, and the metrics — the end-to-end
   ones with --trace 0, the per-layer ones with --trace 1.  A --trace 1
   run makes an untraced pass (counters, gauges, call timings) and a
   traced pass (the attribution sink), each of --seconds.  With --out,
   the traced pass also writes the event timeline of every hundredth op
   of its first world to DIR/trace-NAME.jsonl.  The exit code is 1 when
   a check failed. *)

open Vsync_core
module Message = Vsync_msg.Message
module Samples = Tally.Samples

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ ~samples value = { name; unit_; value; samples }

let median l =
  match List.sort compare l with
  | [] -> Float.nan
  | s -> List.nth s (List.length s / 2)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let cpu_per_delivery (p : Load.pass) =
  if p.Load.deliveries = 0 then Float.nan else p.Load.cpu_s *. 1e6 /. float_of_int p.Load.deliveries

let end_to_end (p : Load.pass) =
  let lat = p.Load.acc.Tally.lat in
  let n = Samples.count lat in
  let window_s = float_of_int p.Load.window_us /. 1e6 in
  [
    m "setup_s" "s" ~samples:(List.length p.Load.setups) (median p.Load.setups);
    m "delivered_per_member_s" "msg/s" ~samples:p.Load.window_deliveries
      (float_of_int p.Load.window_deliveries /. float_of_int (max 1 p.Load.members) /. window_s);
    m "latency_p50_ms" "ms" ~samples:n (Samples.percentile lat 50.0 /. 1000.0);
    m "latency_p99_ms" "ms" ~samples:n (Samples.percentile lat 99.0 /. 1000.0);
    m "peak_heap_mb" "MB" ~samples:1
      (float_of_int (p.Load.peak_live_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* A 64 B ledger message, timed outside any world: the median of five
   rounds over fresh messages (built before the clock starts, since
   [size] caches its result), ns per message. *)
let msg_costs () =
  let n = 20_000 in
  let build i =
    let msg = Message.create () in
    Message.set_int msg Tally.op_field i;
    Message.set_bytes msg "pad" (Bytes.make 64 'x');
    msg
  in
  let fresh () = Array.init n build in
  let time setup f =
    median
      (List.init 5 (fun _ ->
           let x = setup () in
           let t0 = Unix.gettimeofday () in
           f x;
           (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n))
  in
  let each f a = Array.iter (fun msg -> ignore (Sys.opaque_identity (f msg))) a in
  [
    ("msg.build_ns", time ignore (fun () -> ignore (Sys.opaque_identity (fresh ()))));
    ("msg.copy_ns", time fresh (each Message.copy));
    ("msg.size_ns", time fresh (each Message.size));
  ]

(* Per-layer metrics of the untraced pass: counts, gauges, call times. *)
let untraced_layers (p : Load.pass) =
  let d = p.Load.deliveries in
  let wire k = p.Load.wire.(k) in
  let peak k = float_of_int p.Load.gauge_peaks.(k) in
  let a = p.Load.acc in
  let us s n = if n = 0 then 0.0 else s *. 1e6 /. float_of_int n in
  [
    m "backend.busy_frac" "ratio" ~samples:1 (p.Load.cpu_s /. p.Load.real_s);
    m "backend.cpu_us_per_delivery" "us" ~samples:d (cpu_per_delivery p);
    m "backend.events_per_delivery" "count" ~samples:d (ratio p.Load.events_fired d);
    m "transport.packets_per_delivery" "count" ~samples:d (ratio (wire 0) d);
    m "transport.frames_per_packet" "count" ~samples:(wire 0) (ratio (wire 1) (wire 0));
    m "transport.acks_per_delivery" "count" ~samples:d (ratio (wire 2) d);
    m "transport.retransmits_per_delivery" "count" ~samples:d (ratio (wire 3) d);
    m "transport.sendq_peak" "count" ~samples:1 (peak 0);
    m "transport.credit_waiting_peak" "count" ~samples:1 (peak 1);
    m "runtime.ab_queue_peak" "count" ~samples:1 (peak 2);
    m "runtime.ab_inflight_peak" "count" ~samples:1 (peak 3);
    m "runtime.cpu_busy_frac" "ratio" ~samples:1 p.Load.busy_frac;
    m "runtime.bcast_call_us" "us" ~samples:a.Tally.calls (us a.Tally.call_s a.Tally.calls);
    m "membership.join_ms" "ms" ~samples:(List.length p.Load.joins)
      (median (List.map float_of_int p.Load.joins) /. 1000.0);
    m "membership.failover_ms" "ms" ~samples:(List.length p.Load.failovers)
      (match p.Load.failovers with [] -> 0.0 | l -> median (List.map float_of_int l) /. 1000.0);
    m "app.handler_us" "us" ~samples:a.Tally.handler_calls
      (us a.Tally.handler_s a.Tally.handler_calls);
    m "gen.lateness_p99_ms" "ms" ~samples:(Samples.count a.Tally.lateness)
      (Samples.percentile a.Tally.lateness 99.0 /. 1000.0);
  ]
  @ List.map (fun (name, v) -> m name "ns" ~samples:5 v) (msg_costs ())

(* Per-layer metrics of the traced pass: the attribution, and what
   tracing cost relative to the untraced pass. *)
let traced_layers (u : Load.pass) (t : Load.pass) =
  let unit_of name =
    if Filename.check_suffix name "_us" then "us"
    else if Filename.check_suffix name "_ms" then "ms"
    else if Filename.check_suffix name "_frac" then "ratio"
    else "count"
  in
  let n = Samples.count t.Load.acc.Tally.lat in
  List.map (fun (name, v) -> m name (unit_of name) ~samples:n v) (Attrib.summary t.Load.attribs)
  @ [
      m "obs.trace_overhead_frac" "ratio" ~samples:t.Load.deliveries
        ((cpu_per_delivery t /. cpu_per_delivery u) -. 1.0);
      m "obs.events_per_delivery" "count" ~samples:t.Load.deliveries
        (ratio (Attrib.events t.Load.attribs) t.Load.deliveries);
    ]

let print_table (wl : Load.workload) metrics =
  Printf.printf "%s (%s clock)\n" wl.Load.name (Load.clock_name wl.Load.clock);
  List.iter
    (fun x -> Printf.printf "  %-34s %14.4f %-6s n=%d\n" x.name x.value x.unit_ x.samples)
    metrics

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]))
             metrics) );
    ]

let run_workload (wl : Load.workload) ~seed ~seconds ~trace ~out =
  let o = { Load.seed; seconds; traced = false; jsonl = None; first = true } in
  let u = Load.run_pass wl o in
  let passes, metrics =
    if not trace then ([ u ], end_to_end u)
    else begin
      let path dir = Filename.concat dir ("trace-" ^ wl.Load.name ^ ".jsonl") in
      let jsonl = Option.map (fun dir -> open_out (path dir)) out in
      let t = Load.run_pass wl { o with Load.traced = true; jsonl } in
      Option.iter close_out jsonl;
      ([ u; t ], untraced_layers u @ traced_layers u t)
    end
  in
  let sum f = List.fold_left (fun acc (p : Load.pass) -> acc + f p.Load.acc) 0 passes in
  let violations =
    List.concat_map (fun (p : Load.pass) -> List.rev p.Load.acc.Tally.violations) passes
  in
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
  print_table wl metrics;
  let correct = violations = [] in
  print_endline
    (Json.to_string
       (result_json ~correct
          ~attempted:(sum (fun a -> a.Tally.attempted))
          ~failed:(sum (fun a -> a.Tally.failed))
          metrics));
  correct

(* --- Figure 3, from the attribution --- *)

(* One ABCAST between two sites on the simulator, as in the paper's
   Figure 3: its remote delivery is three link traversals (data,
   priority proposal, commit) plus protocol and CPU time.  The
   attribution must account for every microsecond of it.  Returns the
   verdict and the report. *)
let figure3 () =
  let p = Load.new_pass () in
  let o = { Load.seed = 1; seconds = 1; traced = true; jsonl = None; first = true } in
  let rig = Load.form p o ~clock:Load.Virtual ~sites:2 ~rpc:false in
  let w = rig.Load.w and tally = rig.Load.tally in
  World.run_for w 1_000_000;
  let sender = rig.Load.members.(0) in
  World.run_task w sender.Tally.proc (fun () ->
      Tally.multicast tally sender ~site:0 ~mode:Types.Abcast ~due:(World.now w)
        ~payload:(Bytes.make 100 'x'));
  ignore
    (World.run_cond ~timeout_us:1_000_000 w (fun () -> Hashtbl.length tally.Tally.inflight = 0));
  Tally.finish tally;
  let segs = Attrib.summary p.Load.attribs in
  let seg name = List.assoc name segs in
  let total_ms = Samples.percentile p.Load.acc.Tally.lat 50.0 /. 1000.0 in
  let link_ms = seg "backend.hop_us" /. 1000.0 in
  let times = List.filter (fun (name, _) -> Filename.check_suffix name "_us") segs in
  let attributed_ms = List.fold_left (fun acc (_, v) -> acc +. (v /. 1000.0)) 0.0 times in
  let b = Buffer.create 1024 in
  Printf.bprintf b "Figure 3: one ABCAST, 2 sites, remote delivery (simulator)\n";
  List.iter (fun (name, v) -> Printf.bprintf b "  %-28s %8.3f ms\n" name (v /. 1000.0)) times;
  Printf.bprintf b "  %-28s %8.3f ms   (paper: 3 x 16 ms = 48 ms)\n" "link traversals" link_ms;
  Printf.bprintf b "  %-28s %8.3f ms   (paper: ~22 ms)\n" "protocol + CPU" (total_ms -. link_ms);
  Printf.bprintf b "  %-28s %8.3f ms   (paper: ~70 ms)\n" "measured end to end" total_ms;
  let inter_ms = float_of_int Vsync_sim.Net.default_config.Vsync_sim.Net.inter_site_us /. 1000.0 in
  let checks =
    [
      ( "the one op completed and its path was reconstructed",
        p.Load.acc.Tally.failed = 0 && seg "obs.unattributed_frac" = 0.0 );
      ("segments sum to the measured latency", Float.abs (attributed_ms -. total_ms) < 1e-9);
      (* Each traversal is the 16 ms link plus the packet's time on
         the 10 Mbit transmitter. *)
      ( "three link traversals of 16 ms each",
        link_ms >= 3.0 *. inter_ms && link_ms < (3.0 *. inter_ms) +. 1.0 );
      ("end to end as the paper's ~70 ms", total_ms > 65.0 && total_ms < 75.0);
    ]
  in
  List.iter
    (fun (what, ok) -> Printf.bprintf b "  %s: %s\n" (if ok then "ok" else "FAIL") what)
    checks;
  (List.for_all snd checks && p.Load.acc.Tally.violations = [], Buffer.contents b)

(* --- determinism smoke --- *)

(* The sim workloads at their smallest (one world, a short flood), twice
   with one seed: their virtual metrics must repeat exactly and every
   check hold.  The traced sim-flood must attribute its latency, and
   Figure 3 must hold.  Silent unless something fails. *)
let selftest () =
  let virtual_metrics (p : Load.pass) =
    List.filter_map
      (fun x ->
        match x.name with
        | "delivered_per_member_s" | "latency_p50_ms" | "latency_p99_ms" -> Some (x.name, x.value)
        | _ -> None)
      (end_to_end p)
    @ [
        ("wire", float_of_int (Array.fold_left ( + ) 0 p.Load.wire));
        ("events", float_of_int p.Load.events_fired);
      ]
  in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        Printf.printf "selftest FAIL: %s\n" s)
      fmt
  in
  (match figure3 () with
  | true, _ -> ()
  | false, report -> fail "Figure 3\n%s" report);
  let o = { Load.seed = 7; seconds = 0; traced = false; jsonl = None; first = true } in
  List.iter
    (fun (wl : Load.workload) ->
      if wl.Load.clock = Load.Virtual then begin
        let a = Load.run_pass wl o and b = Load.run_pass wl o in
        List.iter
          (fun (p : Load.pass) ->
            if p.Load.acc.Tally.violations <> [] || p.Load.acc.Tally.failed > 0 then
              fail "%s: %s" wl.Load.name (String.concat "; " (p.Load.acc.Tally.violations)))
          [ a; b ];
        if virtual_metrics a <> virtual_metrics b then
          fail "%s: virtual metrics differ between runs" wl.Load.name
      end)
    Load.all;
  (match Load.find "sim-flood" with
  | Some wl ->
    let t = Load.run_pass wl { o with Load.traced = true } in
    let unattributed = List.assoc "obs.unattributed_frac" (Attrib.summary t.Load.attribs) in
    if unattributed > 0.05 then fail "sim-flood: %.3f of latency unattributed" unattributed
  | None -> fail "sim-flood missing");
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref None and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S length of each pass (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write trace timelines here");
      ("--check", Arg.Unit (fun () -> mode := `Check), " reproduce Figure 3 from the attribution");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " determinism smoke");
    ]
  in
  let usage = "ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let ok =
    match !mode with
    | `Check ->
      let ok, report = figure3 () in
      print_string report;
      ok
    | `Selftest -> selftest ()
    | `Run -> (
      match Load.find !workload with
      | None ->
        Printf.eprintf "unknown workload %S; one of: %s\n" !workload
          (String.concat ", " (List.map (fun (wl : Load.workload) -> wl.Load.name) Load.all));
        exit 2
      | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
        prerr_endline usage;
        exit 2
      | Some wl -> run_workload wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out)
  in
  exit (if ok then 0 else 1)
