(* Bounded-memory soak: the stability-GC tentpole's proof.

   A long mixed CBCAST+ABCAST run (100k messages full, reduced under
   --smoke) against a fully formed group, reported per decile:
   wall-clock message rate, live heap words after a full major, and the
   runtime's own state gauges (retransmission store, dedup residue).
   A guest member joins around decile 3 and leaves around decile 5 —
   view changes mid-run, none in the tail, so a run whose per-view
   delivery state is unbounded has deciles 5..10 to accrete in.

   Dedup watermarks advance from the stability flow, so delivery state
   stays bounded however long the view lives.  Acceptance, on the full
   run:

   - final-decile live heap within 10% of the second decile;
   - final-decile msgs/s within 10% of the second decile.

   Plus a microbench of the dedup membership test itself:
   [Causal.seen]/[Total.seen] against the resident state left by 100k
   stabilized messages (a watermark) vs the historical equivalent (a
   [Uid_set] holding all 100k uids).  Acceptance: >= 5x.

     dune exec bench/main.exe -- soak
     dune exec bench/main.exe -- soak --smoke --json BENCH_soak.json *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Rng = Vsync_util.Rng

(* --- soak run -------------------------------------------------------- *)

type decile = {
  d_idx : int;
  d_msgs : int;
  d_wall_s : float;
  d_msgs_per_s : float;
  d_live_words : int;
  d_store : int;
  d_dedup : int;
}

type soak_result = {
  s_sites : int;
  s_sent : int;
  s_delivered : int;
  s_deciles : decile list;
}

let gauge w f =
  let acc = ref 0 in
  for s = 0 to World.n_sites w - 1 do
    acc := !acc + f (World.runtime w s)
  done;
  !acc

let soak_run ~msgs ~sites =
  let c = Harness.make_cluster ~seed:0x50A1L ~sites () in
  let w = c.Harness.w in
  let delivered = ref 0 in
  Array.iter (fun m -> Runtime.bind m Harness.e_app (fun _ -> incr delivered)) c.Harness.members;
  let guest = World.proc w ~site:0 ~name:"guest" in
  let chunk = msgs / 10 in
  let deciles = ref [] in
  let sent = ref 0 in
  for d = 1 to 10 do
    if d = 3 then begin
      World.run_task w guest (fun () ->
          match Runtime.pg_join guest c.Harness.gid ~credentials:(Message.create ()) with
          | Ok () -> ()
          | Error e -> failwith ("soak guest join: " ^ e));
      World.run_for w 5_000_000
    end;
    if d = 5 then begin
      World.run_task w guest (fun () -> Runtime.pg_leave guest c.Harness.gid);
      World.run_for w 5_000_000
    end;
    (* Each core member must deliver the whole chunk. *)
    let target = !delivered + (chunk * sites) in
    let wall0 = Unix.gettimeofday () in
    World.run_task w c.Harness.members.(0) (fun () ->
        for k = 1 to chunk do
          incr sent;
          let mode = if k mod 8 = 0 then Types.Abcast else Types.Cbcast in
          ignore
            (Runtime.bcast c.Harness.members.(0) mode ~dest:(Addr.Group c.Harness.gid)
               ~entry:Harness.e_app (Harness.padded_msg 64) ~want:Types.No_reply)
        done);
    let budget = ref 2_000 in
    while !delivered < target && !budget > 0 do
      World.run_for w 100_000;
      decr budget
    done;
    if !delivered < target then
      Printf.eprintf "soak: decile %d short: %d < %d\n%!" d !delivered target;
    (* Let stability catch up before sampling state. *)
    World.run_for w 3_000_000;
    let wall = Unix.gettimeofday () -. wall0 in
    Gc.full_major ();
    Harness.note_gc ();
    deciles :=
      {
        d_idx = d;
        d_msgs = chunk;
        d_wall_s = wall;
        d_msgs_per_s = float_of_int chunk /. wall;
        d_live_words = (Gc.stat ()).Gc.live_words;
        d_store = gauge w Runtime.pending_store;
        d_dedup = gauge w Runtime.dedup_residue;
      }
      :: !deciles
  done;
  {
    s_sites = sites;
    s_sent = !sent;
    s_delivered = !delivered;
    s_deciles = List.rev !deciles;
  }

let decile_at r i = List.nth r.s_deciles (i - 1)

(* --- wall-clock run --------------------------------------------------- *)

(* The same mixed flood on the wall-clock backend: real time, real
   scheduling noise, and — with the modelled CPU costs and network
   latencies zeroed — the protocol stack running as fast as the
   hardware allows.  The simulated deciles above answer "what would the
   paper's testbed do"; this column answers "what does this machine
   do".  No view changes, no settling pauses: pure hardware-speed
   throughput. *)

type wall_result = {
  wl_sites : int;
  wl_msgs : int;
  wl_delivered : int;
  wl_wall_s : float;
  wl_msgs_per_s : float;
}

let wall_run ~msgs ~sites =
  let d = Runtime.default_config in
  let runtime_config =
    {
      d with
      Runtime.cpu_send_us = 0;
      cpu_recv_us = 0;
      cpu_us_per_kb = 0;
      cpu_us_per_extra_packet = 0;
    }
  in
  let wc =
    {
      Vsync_backend.Wallclock.default_config with
      Vsync_backend.Wallclock.wc_intra_site_us = 0;
      wc_inter_site_us = 1;
      wc_jitter_us = 1;
    }
  in
  let c =
    Harness.make_cluster ~seed:0x50A1L ~runtime_config ~backend:(World.Wall wc) ~sites ()
  in
  let w = c.Harness.w in
  let delivered = ref 0 in
  Array.iter (fun m -> Runtime.bind m Harness.e_app (fun _ -> incr delivered)) c.Harness.members;
  let chunk = msgs / 10 in
  let wall0 = Unix.gettimeofday () in
  for _ = 1 to 10 do
    let target = !delivered + (chunk * sites) in
    World.run_task w c.Harness.members.(0) (fun () ->
        for k = 1 to chunk do
          let mode = if k mod 8 = 0 then Types.Abcast else Types.Cbcast in
          ignore
            (Runtime.bcast c.Harness.members.(0) mode ~dest:(Addr.Group c.Harness.gid)
               ~entry:Harness.e_app (Harness.padded_msg 64) ~want:Types.No_reply)
        done);
    if
      not
        (World.run_cond ~slice_us:50_000 ~timeout_us:120_000_000 w (fun () ->
             !delivered >= target))
    then Printf.eprintf "soak wall: chunk short: %d < %d\n%!" !delivered target
  done;
  let wall = Unix.gettimeofday () -. wall0 in
  {
    wl_sites = sites;
    wl_msgs = msgs;
    wl_delivered = !delivered;
    wl_wall_s = wall;
    wl_msgs_per_s = float_of_int !delivered /. float_of_int sites /. wall;
  }

(* --- dedup membership microbench ------------------------------------- *)

type micro_result = {
  m_history : int;
  m_causal_ns : float;
  m_total_ns : float;
  m_uid_set_ns : float;
  m_causal_speedup : float;
  m_total_speedup : float;
}

let time_ns ~iters ~per_iter f =
  let reps = 3 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9 /. float_of_int (iters * per_iter)

let micro_dedup () =
  let n = if !Harness.smoke then 20_000 else 100_000 in
  let nsites = 4 in
  let per_site = n / nsites in
  (* Resident state after [n] messages all stabilized: a watermark. *)
  let cb : int Causal.t = Causal.create ~n_ranks:nsites () in
  let ab : int Total.t = Total.create ~site:0 () in
  for s = 0 to nsites - 1 do
    Causal.stabilized cb { Types.usite = s; useq = per_site };
    Total.stabilized ab { Types.usite = s; useq = per_site }
  done;
  (* The historical equivalent: every uid resident in a set. *)
  let set = ref Types.Uid_set.empty in
  for s = 0 to nsites - 1 do
    for q = 1 to per_site do
      set := Types.Uid_set.add { Types.usite = s; useq = q } !set
    done
  done;
  let set = !set in
  let probes =
    let r = Rng.create 0xD3DL in
    Array.init 4096 (fun _ ->
        { Types.usite = Rng.int r nsites; useq = 1 + Rng.int r per_site })
  in
  let sink = ref 0 in
  let probe_loop f () = Array.iter (fun u -> if f u then incr sink) probes in
  let iters = if !Harness.smoke then 100 else 400 in
  let measure f = time_ns ~iters ~per_iter:(Array.length probes) (probe_loop f) in
  let causal_ns = measure (Causal.seen cb) in
  let total_ns = measure (Total.seen ab) in
  let uid_set_ns = measure (fun u -> Types.Uid_set.mem u set) in
  assert (!sink > 0);
  {
    m_history = n;
    m_causal_ns = causal_ns;
    m_total_ns = total_ns;
    m_uid_set_ns = uid_set_ns;
    m_causal_speedup = uid_set_ns /. causal_ns;
    m_total_speedup = uid_set_ns /. total_ns;
  }

(* --- driver ---------------------------------------------------------- *)

let run () =
  let msgs = if !Harness.smoke then 5_000 else 100_000 in
  let sites = 3 in
  let r = soak_run ~msgs ~sites in
  let rows r =
    List.map
      (fun d ->
        [
          string_of_int d.d_idx;
          Printf.sprintf "%.0f" d.d_msgs_per_s;
          string_of_int d.d_live_words;
          string_of_int d.d_store;
          string_of_int d.d_dedup;
        ])
      r.s_deciles
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "soak: %d msgs (1/8 ABCAST), %d sites, view changes at deciles 3 and 5"
         msgs sites)
    ~header:[ "decile"; "msgs/s (wall)"; "live words"; "store"; "dedup residue" ]
    (rows r);

  let d2 = decile_at r 2 and d10 = decile_at r 10 in
  let heap_ratio = float_of_int d10.d_live_words /. float_of_int (max 1 d2.d_live_words) in
  let tput_ratio = d10.d_msgs_per_s /. d2.d_msgs_per_s in
  let heap_ok = heap_ratio <= 1.10 in
  let tput_ok = tput_ratio >= 0.90 in
  Printf.printf "final/second decile live heap: %.3f (acceptance: <= 1.10) %s\n" heap_ratio
    (if heap_ok then "PASS" else "FAIL");
  Printf.printf "final/second decile msgs/s: %.3f (acceptance: >= 0.90) %s\n" tput_ratio
    (if tput_ok then "PASS" else "FAIL");
  Printf.printf "dedup residue at decile 10: %d\n" d10.d_dedup;

  let wall_r =
    if not !Harness.wall then None
    else begin
      let r = wall_run ~msgs ~sites in
      Printf.printf
        "wall-clock backend: %d msgs in %.2fs real = %.0f msgs/s delivered per member (hardware speed)\n"
        r.wl_msgs r.wl_wall_s r.wl_msgs_per_s;
      Some r
    end
  in

  let m = micro_dedup () in
  Harness.print_table
    ~title:(Printf.sprintf "dedup membership at %dk-message history" (m.m_history / 1000))
    ~header:[ "structure"; "ns/lookup"; "speedup" ]
    [
      [ "Uid_set (historical)"; Printf.sprintf "%.1f" m.m_uid_set_ns; "1.00x" ];
      [ "Causal.seen (watermark)"; Printf.sprintf "%.1f" m.m_causal_ns;
        Printf.sprintf "%.2fx" m.m_causal_speedup ];
      [ "Total.seen (watermark)"; Printf.sprintf "%.1f" m.m_total_ns;
        Printf.sprintf "%.2fx" m.m_total_speedup ];
    ];
  let micro_ok = m.m_causal_speedup >= 5.0 && m.m_total_speedup >= 5.0 in
  Printf.printf "dedup lookup speedup: %.2fx / %.2fx (acceptance: >= 5x) %s\n" m.m_causal_speedup
    m.m_total_speedup
    (if micro_ok then "PASS" else "FAIL");

  match !Harness.json_path with
  | None -> ()
  | Some path ->
    let module J = Harness.Json in
    let decile_json d =
      J.Obj
        [
          ("decile", J.Int d.d_idx);
          ("msgs", J.Int d.d_msgs);
          ("wall_s", J.Float d.d_wall_s);
          ("msgs_per_s", J.Float d.d_msgs_per_s);
          ("live_words", J.Int d.d_live_words);
          ("store", J.Int d.d_store);
          ("dedup_residue", J.Int d.d_dedup);
        ]
    in
    let run_json r =
      J.Obj
        [
          ("sites", J.Int r.s_sites);
          ("sent", J.Int r.s_sent);
          ("delivered", J.Int r.s_delivered);
          ("deciles", J.List (List.map decile_json r.s_deciles));
        ]
    in
    Harness.write_json path
      (J.Obj
         [
           ("bench", J.Str "soak");
           ("smoke", J.Bool !Harness.smoke);
           ("msgs", J.Int msgs);
           ("default", run_json r);
           ( "wall_clock",
             match wall_r with
             | None -> J.Bool false
             | Some r ->
               J.Obj
                 [
                   ("sites", J.Int r.wl_sites);
                   ("msgs", J.Int r.wl_msgs);
                   ("delivered", J.Int r.wl_delivered);
                   ("wall_s", J.Float r.wl_wall_s);
                   ("msgs_per_s_per_member", J.Float r.wl_msgs_per_s);
                 ] );
           ( "acceptance",
             J.Obj
               [
                 ("heap_ratio_final_vs_second", J.Float heap_ratio);
                 ("tput_ratio_final_vs_second", J.Float tput_ratio);
                 ("heap_ok", J.Bool heap_ok);
                 ("tput_ok", J.Bool tput_ok);
               ] );
           ( "micro_dedup",
             J.Obj
               [
                 ("history", J.Int m.m_history);
                 ("uid_set_ns", J.Float m.m_uid_set_ns);
                 ("causal_seen_ns", J.Float m.m_causal_ns);
                 ("total_seen_ns", J.Float m.m_total_ns);
                 ("causal_speedup", J.Float m.m_causal_speedup);
                 ("total_speedup", J.Float m.m_total_speedup);
                 ("speedup_ok", J.Bool micro_ok);
               ] );
         ]);
    Printf.printf "soak: JSON written to %s\n" path
