(* Bounded-memory soak: the stability-GC tentpole's proof.

   A long mixed CBCAST+ABCAST run (100k messages full, reduced under
   --smoke) against a fully formed group, reported per decile: live heap
   words after a full major, the runtime's own state gauges (retransmission
   store, dedup residue) and the wall-clock message rate.  A guest member
   joins around decile 3 and leaves around decile 5 — view changes
   mid-run, none in the tail, so a run whose per-view delivery state is
   unbounded has deciles 5..10 to accrete in.

   Dedup watermarks advance from the stability flow, so delivery state
   stays bounded however long the view lives.  Verdict: final-decile
   live heap within 10% of the second decile.  The same ratio of the
   msgs/s column is printed but not gated: it is wall clock, and each
   decile lasts a fraction of a second.

     dune exec bench/main.exe -- soak
     dune exec bench/main.exe -- --smoke soak *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

(* --- soak run -------------------------------------------------------- *)

type decile = {
  d_idx : int;
  d_msgs_per_s : float;
  d_live_words : int;
  d_store : int;
  d_dedup : int;
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
    deciles :=
      {
        d_idx = d;
        d_msgs_per_s = float_of_int chunk /. wall;
        d_live_words = (Gc.stat ()).Gc.live_words;
        d_store = gauge w Runtime.pending_store;
        d_dedup = gauge w Runtime.dedup_residue;
      }
      :: !deciles
  done;
  List.rev !deciles

(* --- driver ---------------------------------------------------------- *)

let run () =
  let msgs = if !Harness.smoke then 5_000 else 100_000 in
  let sites = 3 in
  let deciles = soak_run ~msgs ~sites in
  let rows =
    List.map
      (fun d ->
        let m name = Printf.sprintf "decile%d.%s" d.d_idx name in
        Harness.metric (m "live_words") "words" (float_of_int d.d_live_words);
        Harness.metric (m "store") "count" (float_of_int d.d_store);
        Harness.metric (m "dedup_residue") "count" (float_of_int d.d_dedup);
        [
          string_of_int d.d_idx;
          Printf.sprintf "%.0f" d.d_msgs_per_s;
          string_of_int d.d_live_words;
          string_of_int d.d_store;
          string_of_int d.d_dedup;
        ])
      deciles
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "soak: %d msgs (1/8 ABCAST), %d sites, view changes at deciles 3 and 5"
         msgs sites)
    ~header:[ "decile"; "msgs/s (wall)"; "live words"; "store"; "dedup residue" ]
    rows;
  let d2 = List.nth deciles 1 and d10 = List.nth deciles 9 in
  let heap_ratio = float_of_int d10.d_live_words /. float_of_int (max 1 d2.d_live_words) in
  Harness.metric "heap_ratio_final_vs_second" "ratio" heap_ratio;
  Harness.verdict
    (Printf.sprintf "final/second decile live heap: %.3f (acceptance: <= 1.10)" heap_ratio)
    (heap_ratio <= 1.10);
  Printf.printf "final/second decile msgs/s: %.3f (wall clock; reported, not gated)\n"
    (d10.d_msgs_per_s /. d2.d_msgs_per_s);
  Printf.printf "dedup residue at decile 10: %d\n" d10.d_dedup
