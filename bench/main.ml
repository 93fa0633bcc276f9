(* Benchmark harness: regenerates every table and figure from the
   paper's evaluation (Sec 7) plus the Sec 5 application throughput and
   an ablation, on the simulated testbed, and the experiments that
   measure what the performance ledger (bench/ledger) does not.

     dune exec bench/main.exe            # every experiment
     dune exec bench/main.exe table1     # just Table I
     dune exec bench/main.exe fig2 fig3  # a subset

   Experiments: table1 fig2 fig3 twentyq ablate load faults scale micro
   wire soak shard parallel.

   Flags (consumed before experiment names):
     --json PATH    write one record per experiment run to PATH
                    (Harness: experiment, git rev, seeds, pass, metrics)
     --trace-out P  stream the typed event layer of every harness
                    cluster to P as JSONL
     --smoke        reduced iteration counts, for CI perf tracking
     --jobs N       run sweep points of parallel-capable experiments
                    (shard, parallel) on N domains

   Exits 1 after the last experiment if any verdict failed. *)

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
    ("wire", Wire.run);
    ("soak", Soak.run);
    ("shard", Shard.run);
    ("parallel", Parallel.run);
  ]

let () =
  let json_path = ref None in
  let rec parse args =
    match args with
    | "--json" :: path :: rest ->
      json_path := Some path;
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
    | "--jobs" :: n :: rest ->
      let n = int_of_string n in
      Harness.jobs := (if n <= 0 then Vsync_parallel.Pool.available_cores () else n);
      parse rest
    | "--jobs" :: [] ->
      Printf.eprintf "--jobs needs a count (0 = all cores)\n";
      exit 2
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
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    names;
  List.iter
    (fun name ->
      Printf.printf "\n################ experiment: %s ################\n" name;
      Harness.start name;
      (List.assoc name experiments) ())
    names;
  Option.iter
    (fun path ->
      Harness.write_records path;
      Printf.printf "\nbench: records written to %s\n" path)
    !json_path;
  if Harness.all_passed () then Printf.printf "\nbench: done\n%!"
  else begin
    Printf.printf "\nbench: FAIL (a verdict failed)\n%!";
    exit 1
  end
