(* Wall-clock micro-benchmarks of the building blocks the runtime leans
   on: message field access, copy-on-write mutation and the codec, frame
   sizing, vector clocks, the heap, the two ordering engines and the
   event engine, plus how late the wall-clock backend fires a timer.
   These measure the implementation itself in real time, not the
   simulated testbed.  Message construction, copy and size are the
   ledger's msg.build_ns / copy_ns / size_ns and are not repeated
   here.

     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- --smoke micro *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Vclock = Vsync_util.Vclock
module Heap = Vsync_util.Heap
module Engine = Vsync_sim.Engine
module Backend = Vsync_backend.Backend
module Wallclock = Vsync_backend.Wallclock

(* ns per call of [f], from one timed batch of [iters] calls; the
   harness repeats the batch [Harness.wall_repeats] times. *)
let time_ns ~iters f () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

(* Median µs past its deadline at which a wall-clock timer armed 500 µs
   out fires, over [n] timers each armed by the one before. *)
let timer_lateness_us ~n () =
  let wc = Wallclock.create ~sites:1 () in
  let bk = Wallclock.backend wc in
  let late = Array.make n 0 in
  let rec arm k =
    let at = Wallclock.now wc + 500 in
    ignore
      (Backend.schedule_at bk at (fun () ->
           late.(k) <- Wallclock.now wc - at;
           if k + 1 < n then arm (k + 1) else Wallclock.stop wc))
  in
  arm 0;
  ignore (Wallclock.run_until wc (Wallclock.now wc + 10_000_000));
  Array.sort compare late;
  float_of_int late.(n / 2)

let sample_msg () =
  let m = Message.create () in
  Message.set_int m "count" 42;
  Message.set_str m "kind" "update";
  Message.set_bool m "flag" true;
  Message.set_float m "ratio" 0.125;
  Message.set_bytes m "pad" (Bytes.make 256 'x');
  Message.set_addr m "who" (Addr.Proc (Addr.proc ~site:1 ~idx:2 ~incarnation:3));
  Message.set_addrs m "them" [ Addr.Group (Addr.group_of_int 9) ];
  Message.set_int m "seq" 7;
  m

let run () =
  let scale n = if !Harness.smoke then max 1 (n / 20) else n in
  let m = sample_msg () in
  let encoded = Message.encode m in
  let cb_frame =
    Proto.Cb_data
      {
        group = Addr.group_of_int 9;
        view_id = 3;
        uid = { Types.usite = 1; useq = 42 };
        rank = 0;
        vt = Some [ 4; 2; 0 ];
        ack = true;
        body = m;
      }
  in
  let va = Vclock.of_list [ 5; 3; 9; 2; 7 ] and vb = Vclock.of_list [ 5; 4; 9; 2; 7 ] in
  let ops =
    [
      ( "copy_mutate",
        100_000,
        fun () ->
          let c = Message.copy m in
          Message.set_int c "count" 1 );
      ( "copy_read3",
        200_000,
        fun () ->
          let c = Message.copy m in
          ignore (Message.get_int c "count");
          ignore (Message.get_bool c "flag");
          ignore (Message.get_int c "seq") );
      ("set_replace", 200_000, fun () -> Message.set_int m "count" 43);
      ("get_hot", 500_000, fun () -> ignore (Message.get_int m "seq"));
      ("encode", 100_000, fun () -> ignore (Message.encode m));
      ( "encode_pooled",
        100_000,
        fun () ->
          Vsync_msg.Bufpool.with_buf (fun buf ->
              Message.encode_into buf m;
              ignore (Buffer.length buf)) );
      ("decode", 100_000, fun () -> ignore (Message.decode encoded));
      ("proto_size_recv", 500_000, fun () -> ignore (Proto.size cb_frame));
      ( "vclock_deliverable_dim5",
        500_000,
        fun () -> ignore (Vclock.deliverable ~msg:vb ~local:va ~sender:1) );
      ( "heap_push_pop_x16",
        50_000,
        fun () ->
          let h = Heap.create ~compare:Int.compare in
          for i = 15 downto 0 do
            Heap.push h i
          done;
          while not (Heap.is_empty h) do
            ignore (Heap.pop h)
          done );
      ( "abcast_engine_x8",
        20_000,
        fun () ->
          let t = Total.create ~site:0 () in
          for i = 0 to 7 do
            let uid = { Types.usite = 1; useq = i } in
            let prio = Total.intake t ~uid i in
            Total.commit t ~uid prio
          done;
          ignore (Total.drain t) );
      ( "cbcast_engine_x8",
        20_000,
        fun () ->
          let t = Causal.create ~n_ranks:3 () in
          let local = Vclock.create 3 in
          for i = 0 to 7 do
            Vclock.incr local 1;
            let uid = { Types.usite = 1; useq = i } in
            Causal.receive t ~uid ~rank:1 ~vt:(Vclock.copy local) i
          done;
          ignore (Causal.drain t) );
      ( "event_engine_x64",
        10_000,
        fun () ->
          let e = Engine.create () in
          for i = 1 to 64 do
            ignore (Engine.schedule e ~delay:i (fun () -> ()))
          done;
          Engine.run e );
    ]
  in
  let rows =
    List.map
      (fun (name, iters, f) ->
        let ns = Harness.wall_metric name "ns" (time_ns ~iters:(scale iters) f) in
        [ name; Printf.sprintf "%.1f ns" ns ])
      ops
  in
  let late = Harness.wall_metric "wall_timer_500us_late" "us" (timer_lateness_us ~n:(scale 200)) in
  Harness.print_table
    ~title:(Printf.sprintf "micro (wall clock, median of %d batches)" Harness.wall_repeats)
    ~header:[ "operation"; "median" ]
    (rows @ [ [ "wall_timer_500us_late"; Printf.sprintf "%.1f us" late ] ])
