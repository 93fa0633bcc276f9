(* Throughput and latency under faults: the paper's evaluation runs on
   a healthy network; this experiment re-runs the standard traffic mix
   while the nemesis drives seeded fault plans of increasing intensity,
   with the virtual-synchrony oracle judging every run.  The interesting
   columns are the degradation — how much the fault load costs in
   delivered throughput and tail latency — and the verdict, which must
   stay PASS at every intensity. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let seed = 0xFA17L

(* Partition recovery: a 5-site group split 3/2.  The majority side
   must keep delivering through the split (primary-partition rule),
   and after the heal the minority's path back — probe-detect the
   newer primary view, tear the wedged copy down, rejoin as a fresh
   member — is timed as two latencies: heal-to-teardown and
   heal-to-first-fresh-delivery at a rejoined site. *)
type part_row = {
  p_seed : int64;
  p_dur_ms : int;
  p_maj_split : int;    (* deliveries at a majority site during the split *)
  p_min_split : int;    (* fresh deliveries at a minority site during the split (want 0) *)
  p_teardown_ms : float; (* heal -> minority copy torn down *)
  p_recover_ms : float;  (* heal -> first post-heal delivery at the rejoined site *)
}

let partition_run ~seed ~dur_ms =
  let sites = 5 in
  let c = Harness.make_cluster ~seed ~name:"part" ~sites () in
  let w = c.Harness.w and members = c.Harness.members and gid = c.Harness.gid in
  let count = Array.make sites 0 in
  let last = Array.make sites (-1) in
  Array.iteri
    (fun i m ->
      Runtime.bind m Harness.e_app (fun msg ->
          count.(i) <- count.(i) + 1;
          match Message.get_int msg "tag" with
          | Some t -> if t > last.(i) then last.(i) <- t
          | None -> ()))
    members;
  let tag = ref 0 in
  (* One tagged CBCAST from site 0 every 20ms of virtual time. *)
  let send () =
    let t = !tag in
    incr tag;
    World.run_task w members.(0) (fun () ->
        let msg = Message.create () in
        Message.set_int msg "tag" t;
        ignore
          (Runtime.bcast members.(0) Types.Cbcast ~dest:(Addr.Group gid) ~entry:Harness.e_app msg
             ~want:Types.No_reply));
    World.run_for w 20_000
  in
  for _ = 1 to 10 do
    send ()
  done;
  World.run_for w 500_000;
  let maj0 = count.(0) and min0 = count.(3) in
  World.partition w [ 0; 1; 2 ] [ 3; 4 ];
  for _ = 1 to max 1 (dur_ms / 20) do
    send ()
  done;
  let maj_split = count.(0) - maj0 and min_split = count.(3) - min0 in
  let t_heal = World.now w in
  let heal_tag = !tag in
  World.heal w;
  let teardown_us = ref (-1) and recover_us = ref (-1) in
  let rejoined = ref false in
  let budget = ref 4000 in
  while !recover_us < 0 && !budget > 0 do
    decr budget;
    send ();
    if !teardown_us < 0 && Runtime.pg_view members.(3) gid = None then
      teardown_us := World.now w - t_heal;
    if !teardown_us >= 0 && not !rejoined then begin
      (* The copy is torn down: rejoin both evicted members.  The name
         re-resolves against the primary (teardown dropped this site's
         stale self-contact hints). *)
      rejoined := true;
      List.iter
        (fun s ->
          World.run_task w members.(s) (fun () ->
              (* A first attempt can bounce off a fellow evictee still
                 listed in the stale hints; the refusal purges that
                 contact, so the retry's lookup re-queries the primary. *)
              let rec attempt n =
                ignore (Runtime.pg_lookup members.(s) "part");
                match Runtime.pg_join members.(s) gid ~credentials:(Message.create ()) with
                | Ok () -> ()
                | Error _ when n > 0 ->
                  Runtime.sleep members.(s) 200_000;
                  attempt (n - 1)
                | Error e -> Printf.eprintf "partition bench: rejoin s%d failed: %s\n" s e
              in
              attempt 20))
        [ 3; 4 ]
    end;
    if !rejoined && last.(3) >= heal_tag then recover_us := World.now w - t_heal
  done;
  {
    p_seed = seed;
    p_dur_ms = dur_ms;
    p_maj_split = maj_split;
    p_min_split = min_split;
    p_teardown_ms = (if !teardown_us < 0 then nan else Harness.ms_of_us !teardown_us);
    p_recover_ms = (if !recover_us < 0 then nan else Harness.ms_of_us !recover_us);
  }

let partition_table () =
  let durations = if !Harness.smoke then [ 4_000 ] else [ 4_000; 8_000 ] in
  let seeds = if !Harness.smoke then [ 0x5EED1L ] else [ 0x5EED1L; 0x5EED2L; 0x5EED3L ] in
  let rows =
    List.concat_map (fun seed -> List.map (fun d -> partition_run ~seed ~dur_ms:d) durations) seeds
  in
  Harness.print_table
    ~title:"partition recovery (5 sites, 3/2 split, CBCAST every 20ms from the majority)"
    ~header:
      [
        "seed"; "split ms"; "maj split dlv"; "min split dlv"; "teardown ms"; "recover ms";
      ]
    (List.map
       (fun r ->
         let m name = Printf.sprintf "partition.0x%Lx.split%dms.%s" r.p_seed r.p_dur_ms name in
         Harness.metric (m "teardown_ms") "ms" r.p_teardown_ms;
         Harness.metric (m "recover_ms") "ms" r.p_recover_ms;
         [
           Printf.sprintf "0x%Lx" r.p_seed;
           string_of_int r.p_dur_ms;
           string_of_int r.p_maj_split;
           string_of_int r.p_min_split;
           Printf.sprintf "%.1f" r.p_teardown_ms;
           Printf.sprintf "%.1f" r.p_recover_ms;
         ])
       rows);
  Harness.verdict
    "partition recovery: majority progressed, minority silent, every split recovered:"
    (List.for_all
       (fun r ->
         r.p_maj_split > 0 && r.p_min_split = 0
         && Float.is_finite r.p_teardown_ms
         && Float.is_finite r.p_recover_ms)
       rows)

let run () =
  Harness.note_seed seed;
  let clean = ref true in
  let row intensity =
    let r =
      match
        if intensity = 0.0 then Scenario.run ~seed ~plan:[] ()
        else Scenario.run ~seed ~intensity ()
      with
      | Ok r -> r
      | Error e -> failwith ("faults bench: scenario setup failed: " ^ e)
    in
    let secs = float_of_int r.elapsed_us /. 1_000_000. in
    let thru = float_of_int r.delivered /. secs in
    let lat = Harness.latency_stats (Oracle.latencies_us r.oracle) in
    let faults =
      List.length
        (List.filter
           (fun ev ->
             match ev.Vsync_sim.Nemesis.op with
             | Vsync_sim.Nemesis.Heal | Vsync_sim.Nemesis.Clear_faults
             | Vsync_sim.Nemesis.Clear_link _ ->
               false
             | _ -> true)
           r.plan)
    in
    let label = if intensity = 0.0 then "clean" else Printf.sprintf "%.2f" intensity in
    let m name = Printf.sprintf "intensity_%s.%s" label name in
    Harness.metric (m "msgs_per_s") "msg/s" thru;
    Harness.metric (m "latency_p50_ms") "ms" lat.Harness.median_ms;
    Harness.metric (m "latency_p99_ms") "ms" lat.Harness.p99_ms;
    Harness.metric (m "latency_max_ms") "ms" lat.Harness.max_ms;
    if r.violations <> [] then clean := false;
    [
      label;
      string_of_int faults;
      string_of_int r.sent;
      string_of_int r.delivered;
      Printf.sprintf "%.0f" thru;
      Printf.sprintf "%.1f" lat.Harness.median_ms;
      Printf.sprintf "%.1f" lat.Harness.p99_ms;
      Printf.sprintf "%.1f" lat.Harness.max_ms;
      (if r.violations = [] then "PASS" else Printf.sprintf "FAIL (%d)" (List.length r.violations));
    ]
  in
  Harness.print_table ~title:"multicast under nemesis fault plans (4 sites, mixed traffic)"
    ~header:
      [
        "intensity"; "faults"; "sent"; "delivered"; "msg/s"; "p50 ms"; "p99 ms"; "max ms"; "oracle";
      ]
    (List.map row [ 0.0; 0.25; 0.5; 0.75; 1.0 ]);
  Harness.verdict "faults: oracle clean at every intensity:" !clean;
  partition_table ()
