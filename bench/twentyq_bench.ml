(* The Sec 5 performance summary: "When run on 4 SUN 3/50 workstations
   using a 10-Mbit ethernet and with members at all sites, it supports
   an aggregate of 30 queries or 5 replicated updates per second."

   We reproduce the setup — four sites, one member per site, clients on
   every site — and measure aggregate queries/s (CBCAST + 1 reply) and
   replicated updates/s (GBCAST), closed loop.  The absolute numbers
   depend on the CPU calibration; the shape that must hold is the ratio:
   queries are roughly 6x cheaper than replicated updates. *)

open Vsync_core
open Twentyq
module Message = Vsync_msg.Message

let seed = 0x7E57L

let make () =
  let w = World.create ~seed ~sites:4 () in
  let members = Array.init 4 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "tq%d" s)) in
  World.run_task w members.(0) (fun () ->
      ignore (Service.create members.(0) ~db:(Database.demo_cars ()) ~nmembers:4 ()));
  World.run w;
  for i = 1 to 3 do
    World.run_task w members.(i) (fun () ->
        match Service.join members.(i) () with
        | Ok _ -> ()
        | Error e -> failwith ("twentyq bench join: " ^ e))
  done;
  World.run w;
  let clients =
    Array.init 4 (fun s ->
        let p = World.proc w ~site:s ~name:(Printf.sprintf "cl%d" s) in
        p)
  in
  let handles = Array.make 4 None in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          match Client.connect p with
          | Ok c -> handles.(i) <- Some c
          | Error e -> failwith ("twentyq bench connect: " ^ e)))
    clients;
  World.run w;
  (w, clients, Array.map Option.get handles)

let measure_queries w clients handles ~window_us =
  let count = ref 0 in
  let stop_at = World.now w + window_us in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          let queries = [| "price>9000"; "color=blue"; "make=Ford"; "size=sport" |] in
          let rec loop k =
            if World.now w < stop_at then begin
              match Client.vertical handles.(i) queries.(k mod 4) with
              | Ok _ ->
                incr count;
                loop (k + 1)
              | Error _ -> loop (k + 1)
            end
          in
          loop i))
    clients;
  World.run ~until:(stop_at + 30_000_000) w;
  float_of_int !count /. (float_of_int window_us /. 1e6)

let measure_updates w clients handles ~window_us =
  let count = ref 0 in
  let stop_at = World.now w + window_us in
  Array.iteri
    (fun i p ->
      World.run_task w p (fun () ->
          let rec loop k =
            if World.now w < stop_at then begin
              (* Closed loop: each replicated update is confirmed by
                 every member before the next is issued. *)
              (match
                 Client.add_row_sync handles.(i)
                   [ "car"; "grey"; "sedan"; string_of_int (10_000 + k); "Generic"; "Model" ]
               with
              | Ok () -> incr count
              | Error _ -> ());
              loop (k + 1)
            end
          in
          loop i))
    clients;
  World.run ~until:(stop_at + 60_000_000) w;
  float_of_int !count /. (float_of_int window_us /. 1e6)

let run () =
  let window_us = 10_000_000 in
  let w, clients, handles = make () in
  let qps = measure_queries w clients handles ~window_us in
  let w2, clients2, handles2 = make () in
  let ups = measure_updates w2 clients2 handles2 ~window_us in
  Harness.note_seed seed;
  Harness.metric "queries_per_s" "op/s" qps;
  Harness.metric "updates_per_s" "op/s" ups;
  Harness.print_table
    ~title:"Twenty questions: aggregate throughput (4 sites, members at all sites)"
    ~header:[ "workload"; "paper"; "measured" ]
    [
      [ "queries/s (CBCAST + 1 reply)"; "30"; Printf.sprintf "%.1f" qps ];
      [ "replicated updates/s (GBCAST)"; "5"; Printf.sprintf "%.1f" ups ];
      [ "query/update ratio"; "6.0x"; Printf.sprintf "%.1fx" (qps /. ups) ];
    ];
  Printf.printf "queries outrun replicated updates: %b\n" (qps > ups)
