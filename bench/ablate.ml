(* Ablation the paper argues in prose (Sec 2.4): a fully synchronous
   environment — every multicast totally ordered — is "prohibitively
   expensive"; virtual synchrony wins by letting insensitive updates
   ride the weakest sufficient primitive.

   Workload: the paper's replicated-variables service (Sec 3.1,
   CBCAST's motivating example) — each client has exclusive access to
   its own variables, so per-sender FIFO suffices.  We replicate the
   variables across 3 sites and push the same update stream through
   each primitive, measuring completion time and update throughput:
   CBCAST (what virtual synchrony picks) vs ABCAST (a "synchronous"
   system that orders everything) vs GBCAST (ordering w.r.t. views as
   well — maximally conservative). *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let n_updates = 100

let run_mode mode =
  let c = Harness.make_cluster ~seed:0xAB1AL ~sites:3 () in
  let applied = Array.make 3 0 in
  let done_at = ref 0 in
  let sent_at = Array.make (n_updates + 1) 0 in
  let lat = ref [] in
  let fully_applied = Hashtbl.create 64 in
  Array.iteri
    (fun i m ->
      Runtime.bind m Harness.e_app (fun u ->
          applied.(i) <- applied.(i) + 1;
          (* Latency of an update = send -> applied at the last
             replica. *)
          let k = Option.value ~default:0 (Message.get_int u "value") in
          let seen = 1 + Option.value ~default:0 (Hashtbl.find_opt fully_applied k) in
          Hashtbl.replace fully_applied k seen;
          if seen = 3 then
            lat := float_of_int (World.now c.w - sent_at.(k)) :: !lat;
          if applied.(i) = n_updates then done_at := max !done_at (World.now c.w)))
    c.members;
  let t0 = World.now c.w in
  World.run_task c.w c.members.(0) (fun () ->
      for k = 1 to n_updates do
        let u = Message.create () in
        Message.set_int u "var" (k mod 8);
        Message.set_int u "value" k;
        sent_at.(k) <- World.now c.w;
        ignore
          (Runtime.bcast c.members.(0) mode ~dest:(Addr.Group c.gid) ~entry:Harness.e_app u
             ~want:Types.No_reply)
      done);
  World.run ~until:(t0 + 1_800_000_000) c.w;
  let ok = Array.for_all (fun n -> n = n_updates) applied in
  let elapsed_s = float_of_int (!done_at - t0) /. 1e6 in
  (ok, elapsed_s, float_of_int n_updates /. elapsed_s, Harness.mean (List.rev !lat) /. 1000.0)

let run () =
  let rows =
    List.map
      (fun (mode, key, name, note) ->
        let ok, elapsed, rate, lat_ms = run_mode mode in
        let m metric = Printf.sprintf "%s.%s" key metric in
        Harness.metric (m "completion_s") "s" elapsed;
        Harness.metric (m "updates_per_s") "op/s" rate;
        Harness.metric (m "mean_latency_ms") "ms" lat_ms;
        [
          name;
          (if ok then "yes" else "NO");
          Printf.sprintf "%.2fs" elapsed;
          Printf.sprintf "%.1f" rate;
          Printf.sprintf "%.1fms" lat_ms;
          note;
        ])
      [
        ( Types.Cbcast,
          "cbcast",
          "CBCAST (virtual synchrony's choice)",
          "async; per-sender FIFO is enough here" );
        ( Types.Abcast,
          "abcast",
          "ABCAST (synchronous system)",
          "pays an ordering round-trip per update" );
        ( Types.Gbcast,
          "gbcast",
          "GBCAST (orders vs views too)",
          "full group flush; coordinator batches concurrent requests" );
      ]
  in
  Harness.print_table
    ~title:
      "Ablation: 100 replicated-variable updates, one writer, 3 sites (paper Sec 2.4 argument)"
    ~header:
      [ "primitive"; "all replicas correct"; "completion"; "updates/s"; "mean latency"; "why" ]
    rows
