(* Shared plumbing for the paper-reproduction experiments. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Metrics = Vsync_obs.Metrics

let e_app = Entry.user 0

(* Cross-experiment flags, set by [main] from the command line:
   [--smoke] shrinks iteration counts so CI can record a perf data point
   without burning minutes; [--jobs N] lets sweep-shaped experiments (the
   shard partition sweep, the parallel harness bench) run independent
   points on N domains.  Parallel paths refuse to combine with
   [--trace-out]: the JSONL sink is one shared channel. *)
let smoke = ref false
let jobs = ref 1

(* [--trace-out PATH] streams the typed event layer of every cluster the
   harness builds to PATH as JSONL (one shared file across experiments;
   events carry timestamps and sites, so runs remain separable). *)
let trace_out : string option ref = ref None
let trace_oc : out_channel option ref = ref None

let attach_trace w =
  match !trace_out with
  | None -> ()
  | Some path ->
    let oc =
      match !trace_oc with
      | Some oc -> oc
      | None ->
        let oc = open_out path in
        trace_oc := Some oc;
        at_exit (fun () -> close_out oc);
        oc
    in
    let tr = Vsync_sim.Trace.obs (World.trace w) in
    Vsync_obs.Tracer.add_sink tr (Vsync_obs.Jsonl.sink_to_channel oc);
    Vsync_obs.Tracer.set_enabled tr true

(* A minimal JSON emitter — enough for the bench record, so the bench
   needs no external JSON dependency. *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.4f" f)
      else Buffer.add_string buf "null"
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf
end

(* The [p]th percentiles (0..100) of a sample, by nearest rank rounding
   down: element [n * p / 100] of the sorted sample (nan when empty).
   The record's median/q1/q3 and [latency_stats] both go through here. *)
let percentiles xs ps =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  List.map (fun p -> if n = 0 then nan else a.(min (n - 1) (n * p / 100))) ps

(* The mean of a sample, summed in the order given (nan when empty). *)
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- the bench record --------------------------------------------------

   Every experiment run leaves one record: its id, the seeds it used,
   whether every verdict passed, and its metrics.  A virtual-time metric
   comes from the deterministic simulator, so it is measured once and its
   quartiles equal its median; a wall-clock metric is measured
   [wall_repeats] times.  [main] writes all records to the [--json] file
   and exits 1 if any verdict failed. *)

type clock = Virtual | Wall

type metric = {
  name : string;
  unit_ : string;
  clock : clock;
  repeats : int;
  median : float;
  q1 : float;
  q3 : float;
}

type record = {
  experiment : string;
  mutable seeds : int64 list;  (* distinct, newest first *)
  mutable metrics : metric list;  (* newest first *)
  mutable pass : bool;
}

let wall_repeats = 5
let records : record list ref = ref []

let start experiment = records := { experiment; seeds = []; metrics = []; pass = true } :: !records

let current () =
  match !records with
  | r :: _ -> r
  | [] -> invalid_arg "Harness: no experiment started"

let note_seed s =
  let r = current () in
  if not (List.mem s r.seeds) then r.seeds <- s :: r.seeds

let add_metric clock name unit_ samples =
  match percentiles samples [ 25; 50; 75 ] with
  | [ q1; median; q3 ] ->
    let r = current () in
    r.metrics <- { name; unit_; clock; repeats = List.length samples; median; q1; q3 } :: r.metrics;
    median
  | _ -> assert false

(* A virtual-time (deterministic) number, recorded once. *)
let metric name unit_ v = ignore (add_metric Virtual name unit_ [ v ] : float)

(* Measure a wall-clock number [wall_repeats] times; record the sample
   and return its median. *)
let wall_metric name unit_ f =
  add_metric Wall name unit_ (List.init wall_repeats (fun _ -> f ()))

(* An acceptance check: prints "<label> PASS|FAIL" and marks the record
   failed on FAIL. *)
let verdict label ok =
  Printf.printf "%s %s\n" label (if ok then "PASS" else "FAIL");
  if not ok then (current ()).pass <- false

let all_passed () = List.for_all (fun r -> r.pass) !records

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let record_json rev r =
  let module J = Json in
  let metric_json m =
    J.Obj
      [
        ("name", J.Str m.name); ("unit", J.Str m.unit_);
        ("clock", J.Str (match m.clock with Virtual -> "virtual" | Wall -> "wall"));
        ("repeats", J.Int m.repeats); ("median", J.Float m.median); ("q1", J.Float m.q1);
        ("q3", J.Float m.q3);
      ]
  in
  J.Obj
    [
      ("experiment", J.Str r.experiment); ("git_rev", J.Str rev); ("smoke", J.Bool !smoke);
      ("seeds", J.List (List.rev_map (fun s -> J.Int (Int64.to_int s)) r.seeds));
      ("pass", J.Bool r.pass);
      ("metrics", J.List (List.rev_map metric_json r.metrics));
    ]

(* One JSON array, one record per line, in run order. *)
let write_records path =
  let rev = git_rev () in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Json.to_string (record_json rev r)))
    (List.rev !records);
  output_string oc "\n]\n";
  close_out oc

(* A group with one member per site, fully formed. *)
type cluster = {
  w : World.t;
  members : Runtime.proc array;
  gid : Addr.group_id;
}

let make_cluster ?(seed = 0xBE5CL) ?(name = "bench") ?runtime_config ~sites () =
  note_seed seed;
  let w = World.create ~seed ?runtime_config ~sites () in
  attach_trace w;
  let members =
    Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "b%d" s))
  in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) name));
  World.run w;
  let gid = Option.get !gid in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) name);
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> ()
        | Error e -> failwith ("bench cluster join: " ^ e))
  done;
  World.run w;
  { w; members; gid }

(* Messages padded to a target payload size. *)
let padded_msg bytes =
  let m = Message.create () in
  if bytes > 0 then Message.set_bytes m "pad" (Bytes.make bytes 'x');
  m

(* [total snap name] is metric [name] of a {!World.metrics} snapshot
   (0 when no site has it yet). *)
let total snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_v v | Metrics.Gauge_v v) -> v
  | None -> 0

(* Counter snapshots: Table I's protocol-primitive counters summed over
   all sites. *)
let prim_keys =
  [
    "prim.cbcast"; "prim.abcast"; "prim.gbcast"; "prim.gbcast_req"; "prim.reply";
    "prim.null_reply"; "prim.local_rpc";
  ]

let snapshot_prims w =
  let snap = World.metrics w in
  List.map (fun key -> (key, total snap key)) prim_keys

let diff_prims later earlier =
  List.map2
    (fun (k, v) (k', v') ->
      assert (String.equal k k');
      (k, v - v'))
    later earlier
  |> List.filter (fun (_, d) -> d <> 0)

let render_prims diffs =
  if diffs = [] then "none"
  else
    String.concat ", "
      (List.map
         (fun (k, d) ->
           let label =
             match k with
             | "prim.cbcast" -> "CBCAST"
             | "prim.abcast" -> "ABCAST"
             | "prim.gbcast" -> "GBCAST"
             | "prim.gbcast_req" -> "GBCAST req"
             | "prim.reply" -> "reply"
             | "prim.null_reply" -> "null reply"
             | "prim.local_rpc" -> "local RPC"
             | other -> other
           in
           Printf.sprintf "%d %s" d label)
         diffs)

(* Simple fixed-width table printer. *)
let print_table ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row)
    rows;
  let line c =
    print_string "+";
    Array.iter (fun w -> print_string (String.make (w + 2) c ^ "+")) widths;
    print_newline ()
  in
  let print_row row =
    print_string "|";
    List.iteri (fun i cell -> Printf.printf " %-*s |" widths.(i) cell) row;
    print_newline ()
  in
  Printf.printf "\n== %s ==\n" title;
  ignore ncols;
  line '-';
  print_row header;
  line '=';
  List.iter print_row rows;
  line '-'

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)
let ms_of_us us = float_of_int us /. 1000.0

(* Latency distribution summary over a list of per-delivery latencies
   (µs), for the under-fault columns. *)
type latency_stats = { median_ms : float; p99_ms : float; max_ms : float }

let latency_stats us =
  match percentiles (List.map ms_of_us us) [ 50; 99; 100 ] with
  | [ median_ms; p99_ms; max_ms ] -> { median_ms; p99_ms; max_ms }
  | _ -> assert false
