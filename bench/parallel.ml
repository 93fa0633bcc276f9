(* Domain-parallel harness: the execution-backend tentpole's proof.

   Two measurements over the standard seeded nemesis scenario
   ([Scenario.run], the same harness behind the fuzz sweep):

   1. Sweep scaling: N seeds run to completion at 1 / 2 / 4 / 8 domains
      (--jobs widens the ladder past 8); wall-clock time per point,
      median of [Harness.wall_repeats] sweeps, and speedup.  Seeds are
      picked up by an atomic cursor, so domains self-balance across
      uneven nemesis schedules.

   2. Determinism under parallelism: every sweep's per-seed
      oracle-history digests must equal the first sequential sweep's,
      bit for bit.  This is the load-bearing claim — parallelism that
      perturbed a single delivery would show here.

   Oracle verdicts over fresh seeds are the fuzz sweep's job
   ([test_main.exe fuzz-sweep N --jobs J]).  Speedup scales with
   physical cores; the header prints [Domain.recommended_domain_count]
   so a reader can judge the numbers against the machine that produced
   them (on a 1-core box the sweep measures overhead, not speedup).

     dune exec bench/main.exe -- parallel
     dune exec bench/main.exe -- --smoke --jobs 8 parallel *)

open Vsync_core
module Pool = Vsync_parallel.Pool

let run_seed seed =
  match Scenario.run ~seed ~intensity:0.5 () with
  | Ok r -> Oracle.history_digest r.Scenario.oracle
  | Error e -> failwith (Printf.sprintf "parallel bench: seed %Ld setup failed: %s" seed e)

let run () =
  if !Harness.trace_out <> None then
    failwith "parallel bench: --trace-out is not domain-safe; drop one of the two";
  let n_seeds = if !Harness.smoke then 10 else 50 in
  let seeds = Array.init n_seeds (fun i -> Int64.of_int (9001 + i)) in
  Array.iter Harness.note_seed seeds;
  let ladder = if !Harness.jobs > 8 then [ 1; 2; 4; 8; !Harness.jobs ] else [ 1; 2; 4; 8 ] in
  Printf.printf "parallel: %d seeds, %d recommended domains on this machine\n%!" n_seeds
    (Pool.available_cores ());
  let baseline = ref None in
  let points =
    List.map
      (fun jobs ->
        let matches = ref true in
        let wall =
          Harness.wall_metric (Printf.sprintf "sweep_wall_s.jobs%d" jobs) "s" (fun () ->
              let t0 = Unix.gettimeofday () in
              let digests = Pool.map ~jobs run_seed seeds in
              let dt = Unix.gettimeofday () -. t0 in
              (match !baseline with
              | None -> baseline := Some digests
              | Some b -> if not (Array.for_all2 String.equal b digests) then matches := false);
              dt)
        in
        (jobs, wall, !matches))
      ladder
  in
  let _, base_wall, _ = List.hd points in
  Harness.print_table
    ~title:
      (Printf.sprintf "parallel sweep: %d nemesis seeds per point, median of %d sweeps" n_seeds
         Harness.wall_repeats)
    ~header:[ "domains"; "wall s"; "speedup"; "digests vs sequential" ]
    (List.map
       (fun (jobs, wall, matches) ->
         [
           string_of_int jobs;
           Printf.sprintf "%.2f" wall;
           Printf.sprintf "%.2fx" (base_wall /. wall);
           (if matches then "identical" else "DIVERGED");
         ])
       points);
  Harness.verdict "determinism: per-seed digests identical across every point"
    (List.for_all (fun (_, _, m) -> m) points)
