(* `test_main.exe fuzz-sweep [N] [--jobs J]` bypasses alcotest: run N
   (default 50) seeded nemesis scenarios at the default intensity and
   demand a clean oracle verdict from every one.  With [--jobs J > 1]
   the seeds run on J domains (each seed is still bit-deterministic —
   worlds share nothing); results print in seed order after the join.
   CI runs the parallel sweep plus a small sequential control. *)
let fuzz_sweep ?(jobs = 1) n =
  let seeds = Array.init n (fun i -> Int64.of_int (9001 + i)) in
  let results =
    Vsync_parallel.Pool.map ~jobs
      (fun seed ->
        match Vsync_core.Scenario.run ~seed ~intensity:0.5 () with
        | Ok r -> (seed, r)
        | Error e ->
          failwith (Printf.sprintf "fuzz-sweep seed %Ld: scenario setup failed: %s" seed e))
      seeds
  in
  let failures = ref 0 in
  Array.iter
    (fun (seed, r) ->
      let ok = r.Vsync_core.Scenario.violations = [] in
      Printf.printf "seed %Ld: %s  sent %d delivered %d\n%!" seed
        (if ok then "PASS" else "FAIL")
        r.Vsync_core.Scenario.sent r.Vsync_core.Scenario.delivered;
      if not ok then begin
        incr failures;
        print_string
          (Vsync_core.Oracle.report r.Vsync_core.Scenario.oracle r.Vsync_core.Scenario.violations);
        print_string "plan was:\n";
        print_string (Vsync_sim.Nemesis.plan_to_string r.Vsync_core.Scenario.plan)
      end)
    results;
  if !failures > 0 then begin
    Printf.printf "fuzz-sweep: %d/%d seeds FAILED\n" !failures n;
    exit 1
  end
  else begin
    Printf.printf "fuzz-sweep: all %d seeds passed\n" n;
    exit 0
  end

let () =
  (match Array.to_list Sys.argv with
  | _ :: "fuzz-sweep" :: rest ->
    let rec parse n jobs = function
      | "--jobs" :: j :: rest -> parse n (int_of_string j) rest
      | count :: rest -> parse (int_of_string count) jobs rest
      | [] -> (n, jobs)
    in
    let n, jobs = parse 50 1 rest in
    fuzz_sweep ~jobs n
  | _ -> ());
  Alcotest.run "vsync"
    [
      ("util", Test_util.suite);
      ("msg", Test_msg.suite);
      ("sim", Test_sim.suite);
      ("tasks", Test_tasks.suite);
      ("transport", Test_transport.suite);
      ("obs", Test_obs.suite);
      ("nemesis", Test_nemesis.suite);
      ("core_smoke", Test_core_smoke.suite);
      ("vsync_props", Test_vsync_props.suite);
      ("ordering", Test_ordering.suite);
      ("gc", Test_gc.suite);
      ("failures", Test_failures.suite);
      ("model", Test_model.suite);
      ("api", Test_api.suite);
      ("regressions", Test_regressions.suite);
      ("fuzz", Test_fuzz.suite);
      ("toolkit", Test_toolkit.suite);
      ("twentyq", Test_twentyq.suite);
      ("extensions", Test_extensions.suite);
      ("realtime", Test_realtime.suite);
      ("tools2", Test_tools2.suite);
      ("partition", Test_partition.suite);
      ("shard", Test_shard.suite);
      ("backend", Test_backend.suite);
      ("flowctl", Test_flowctl.suite);
      ("packing", Test_packing.suite);
      ("flush", Test_flush.suite);
      ("datapath", Test_datapath.suite);
      ("copy", Test_copy.suite);
    ]
