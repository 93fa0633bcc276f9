(* Sharded scaling: the consistent-hash ring tentpole's proof.

   The flat Sec 5 service keeps one group with a member at every site,
   so every replicated update costs work at every site.  The sharded
   service partitions the relation across many 3-replica groups placed
   by rendezvous hashing, so an update touches 3 sites no matter how
   many the deployment spans — aggregate keyed throughput should grow
   with the partition count at fixed sites.

   Sweep: partition counts 1 / 4 / 16 / 64 at a fixed site count.  The
   1-partition point is the flat-group baseline (replication factor =
   site count, i.e. a member everywhere, exactly the Sec 5 layout);
   the rest use 3-replica groups.  Per point, closed-loop clients on
   every site drive (a) keyed GBCAST upserts and (b) keyed CBCAST
   queries, each for a fixed window of virtual time; we report
   aggregate ops per virtual second and the speedup over the baseline,
   plus the per-site protocol-state gauges at quiescence (which must
   stay flat across the sweep — sharding must not leak state).

   Acceptance (full run): 64-partition aggregate keyed update AND
   query throughput >= 3x the 1-partition flat-group baseline.

     dune exec bench/main.exe -- shard
     dune exec bench/main.exe -- --smoke --jobs 2 shard *)

open Vsync_core
open Twentyq

type point = {
  p_partitions : int;
  p_replicas : int;
  p_updates_per_s : float;
  p_queries_per_s : float;
  p_max_store : int;
  p_max_residue : int;
  p_max_unstable : int;
}

let max_gauge w f =
  let best = ref 0 in
  for s = 0 to World.n_sites w - 1 do
    let v = f (World.runtime w s) in
    if v > !best then best := v
  done;
  !best

let seed = 0x5A4DL

(* The partitions whose live replicas disagree on their view, each as
   "partition P: R replicas in V views (#id of n, ...)": a partition
   that split.  For the warmup warning. *)
let split_partitions d ~partitions =
  List.filter_map
    (fun part ->
      let replicas = Sharded.Deployment.members d part in
      let views =
        List.sort_uniq compare
          (List.filter_map
             (fun m ->
               Option.map
                 (fun v -> (v.View.view_id, View.n_members v))
                 (Runtime.pg_view (Sharded.member_proc m) (Sharded.member_gid m)))
             replicas)
      in
      if List.length views <= 1 then None
      else
        Some
          (Printf.sprintf "partition %d: %d replicas in %d views (%s)" part (List.length replicas)
             (List.length views)
             (String.concat ", " (List.map (fun (id, n) -> Printf.sprintf "#%d of %d" id n) views))))
    (List.init partitions Fun.id)

let bench_point ~sites ~partitions ~workers ~window_us =
  let replicas = if partitions = 1 then sites else 3 in
  let w = World.create ~seed ~sites () in
  Harness.attach_trace w;
  let d = Sharded.Deployment.deploy w ~partitions ~replicas () in
  if not (Sharded.Deployment.settle ~timeout_us:240_000_000 d) then
    failwith (Printf.sprintf "shard bench: %d-partition deployment failed to form" partitions);
  (* [workers] closed-loop clients per site, so the offered load is
     enough to expose server capacity rather than one client's
     request latency. *)
  let clients =
    Array.init (sites * workers) (fun i ->
        World.proc w ~site:(i mod sites) ~name:(Printf.sprintf "shc%d" i))
  in
  let handles = Array.map (fun p -> Sharded.connect p ~partitions) clients in
  (* Each worker cycles a private key range, so upserts spread over the
     ring and the query window finds the rows the update window left.
     A warmup pass touches every key once outside the measurement
     windows: the first request to a partition pays its directory
     lookup and transport channel establishment (~90 ms extra), which
     is setup cost, not steady-state throughput. *)
  let keyspace = 8 in
  let key i j = Printf.sprintf "k%d:%d" i (j mod keyspace) in
  let warm = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          for j = 0 to keyspace - 1 do
            match Sharded.put handles.(i) [ key i j ] with
            | Ok () -> incr warm
            | Error _ -> incr failed
          done))
    clients;
  World.run w;
  let puts = Array.length clients * keyspace in
  if !warm < puts then
    Printf.printf "shard: warmup incomplete (%d/%d puts; %d failed, %d still pending; %s)\n%!"
      !warm puts !failed (puts - !warm - !failed)
      (match split_partitions d ~partitions with
      | [] -> "every partition's replicas share one view"
      | split -> String.concat "; " split);
  let updates = ref 0 in
  let stop_upd = World.now w + window_us in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          let rec loop j =
            if World.now w < stop_upd then begin
              (match Sharded.put handles.(i) [ key i j ] with
              | Ok () -> incr updates
              | Error _ -> ());
              loop (j + 1)
            end
          in
          loop 0))
    clients;
  World.run ~until:(stop_upd + 30_000_000) w;
  let queries = ref 0 in
  let stop_q = World.now w + window_us in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          let rec loop j =
            if World.now w < stop_q then begin
              (match Sharded.ask handles.(i) (Printf.sprintf "object=%s" (key i j)) with
              | Ok _ -> incr queries
              | Error _ -> ());
              loop (j + 1)
            end
          in
          loop 0))
    clients;
  World.run ~until:(stop_q + 30_000_000) w;
  let per_s n = float_of_int n /. (float_of_int window_us /. 1e6) in
  {
    p_partitions = partitions;
    p_replicas = replicas;
    p_updates_per_s = per_s !updates;
    p_queries_per_s = per_s !queries;
    p_max_store = max_gauge w Runtime.pending_store;
    p_max_residue = max_gauge w Runtime.dedup_residue;
    p_max_unstable = max_gauge w Runtime.pending_unstable;
  }

let run () =
  let sites = if !Harness.smoke then 6 else 20 in
  let sweep = if !Harness.smoke then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ] in
  let workers = if !Harness.smoke then 4 else 24 in
  let window_us = if !Harness.smoke then 4_000_000 else 15_000_000 in
  (* Sweep points are independent worlds, so with [--jobs] they run on
     separate domains (each point stays internally deterministic).  The
     shared JSONL trace channel is not domain-safe, so [--trace-out]
     forces the sequential path. *)
  let jobs = if !Harness.trace_out <> None then 1 else !Harness.jobs in
  Harness.note_seed seed;
  let points =
    Array.to_list
      (Vsync_parallel.Pool.map ~jobs
         (fun partitions ->
           Printf.printf "shard: measuring %d partition(s)...\n%!" partitions;
           bench_point ~sites ~partitions ~workers ~window_us)
         (Array.of_list sweep))
  in
  let base = List.hd points in
  let upd_speedup p = p.p_updates_per_s /. Float.max 1e-9 base.p_updates_per_s in
  let q_speedup p = p.p_queries_per_s /. Float.max 1e-9 base.p_queries_per_s in
  Harness.print_table
    ~title:
      (Printf.sprintf "sharded scaling: %d sites, %d closed-loop clients/site, %.0fs windows (virtual time)"
         sites workers
         (float_of_int window_us /. 1e6))
    ~header:
      [
        "partitions"; "replicas"; "updates/s"; "speedup"; "queries/s"; "speedup";
        "store"; "residue"; "unstable";
      ]
    (List.map
       (fun p ->
         let m name = Printf.sprintf "partitions%d.%s" p.p_partitions name in
         Harness.metric (m "updates_per_s") "op/s" p.p_updates_per_s;
         Harness.metric (m "queries_per_s") "op/s" p.p_queries_per_s;
         Harness.metric (m "max_store") "count" (float_of_int p.p_max_store);
         Harness.metric (m "max_residue") "count" (float_of_int p.p_max_residue);
         Harness.metric (m "max_unstable") "count" (float_of_int p.p_max_unstable);
         [
           string_of_int p.p_partitions;
           string_of_int p.p_replicas;
           Printf.sprintf "%.1f" p.p_updates_per_s;
           Printf.sprintf "%.2fx" (upd_speedup p);
           Printf.sprintf "%.1f" p.p_queries_per_s;
           Printf.sprintf "%.2fx" (q_speedup p);
           string_of_int p.p_max_store;
           string_of_int p.p_max_residue;
           string_of_int p.p_max_unstable;
         ])
       points);
  (* The 64-partition point exists only in the full run. *)
  match List.find_opt (fun p -> p.p_partitions = 64) points with
  | None -> ()
  | Some p64 ->
    let u = upd_speedup p64 and q = q_speedup p64 in
    Harness.verdict
      (Printf.sprintf "64-partition speedup: %.2fx updates, %.2fx queries (acceptance: >= 3x)" u q)
      (u >= 3.0 && q >= 3.0)
