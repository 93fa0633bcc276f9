(* Benchmark harness: regenerates every table and figure from the
   paper's evaluation (Sec 7) plus the Sec 5 application throughput and
   an ablation, on the simulated testbed.

     dune exec bench/main.exe            # all paper experiments + micro
     dune exec bench/main.exe table1     # just Table I
     dune exec bench/main.exe fig2 fig3  # a subset

   Experiments: table1 fig2 fig3 twentyq ablate load faults scale micro
   msgpath wire soak shard parallel overload.

   Flags (consumed before experiment names):
     --json PATH    JSON-capable experiments (faults, msgpath, wire,
                    soak, shard, parallel, overload) write results there
     --trace-out P  stream the typed event layer of every harness
                    cluster to P as JSONL
     --smoke        reduced iteration counts, for CI perf tracking
     --gc-stats     record the peak live heap (max_live_words) in every
                    JSON artifact
     --jobs N       run sweep points of parallel-capable experiments
                    (shard, parallel) on N domains
     --wall         add a wall-clock-backend run to wall-capable
                    experiments (soak) *)

let experiments =
  [
    ("table1", Table1.run);
    ("fig2", Fig2.run);
    ("fig3", Fig3.run);
    ("twentyq", Twentyq_bench.run);
    ("ablate", Ablate.run);
    ("load", Load.run);
    ("faults", Faults.run);
    ("scale", Scale.run);
    ("micro", Micro.run);
    ("msgpath", Msgpath.run);
    ("wire", Wire.run);
    ("soak", Soak.run);
    ("shard", Shard.run);
    ("parallel", Parallel.run);
    ("overload", Overload.run);
  ]

let () =
  let rec parse args =
    match args with
    | "--json" :: path :: rest ->
      Harness.json_path := Some path;
      parse rest
    | "--json" :: [] ->
      Printf.eprintf "--json needs a path\n";
      exit 2
    | "--trace-out" :: path :: rest ->
      Harness.trace_out := Some path;
      parse rest
    | "--trace-out" :: [] ->
      Printf.eprintf "--trace-out needs a path\n";
      exit 2
    | "--smoke" :: rest ->
      Harness.smoke := true;
      parse rest
    | "--gc-stats" :: rest ->
      Harness.gc_stats := true;
      parse rest
    | "--jobs" :: n :: rest ->
      let n = int_of_string n in
      Harness.jobs := (if n <= 0 then Vsync_parallel.Pool.available_cores () else n);
      parse rest
    | "--jobs" :: [] ->
      Printf.eprintf "--jobs needs a count (0 = all cores)\n";
      exit 2
    | "--wall" :: rest ->
      Harness.wall := true;
      parse rest
    | name :: rest -> name :: parse rest
    | [] -> []
  in
  let names =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        Printf.printf "\n################ experiment: %s ################\n" name;
        f ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2)
    names;
  Printf.printf "\nbench: done\n%!"
