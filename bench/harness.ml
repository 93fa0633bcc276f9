(* Shared plumbing for the paper-reproduction experiments. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Stats = Vsync_util.Stats

let e_app = Entry.user 0

(* Cross-experiment flags, set by [main] from the command line:
   [--json PATH] asks JSON-capable experiments to write their results as
   a machine-readable artifact; [--smoke] shrinks iteration counts so CI
   can record a perf data point without burning minutes. *)
let json_path : string option ref = ref None
let smoke = ref false

(* [--trace-out PATH] streams the typed event layer of every cluster the
   harness builds to PATH as JSONL (one shared file across experiments;
   events carry timestamps and sites, so runs remain separable). *)
let trace_out : string option ref = ref None
let trace_oc : out_channel option ref = ref None

(* [--jobs N] lets sweep-shaped experiments (the shard partition sweep,
   the parallel harness bench) run independent points on N domains.
   [--wall] asks wall-capable experiments (soak) to add a wall-clock
   backend run alongside the simulated one.  Parallel paths refuse to
   combine with [--trace-out]: the JSONL sink is one shared channel. *)
let jobs = ref 1
let wall = ref false

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

(* [--gc-stats] makes every JSON-writing bench record the peak live
   heap: [note_gc] folds the current live size (after a full major)
   into a running maximum, and [write_json] samples once more and
   appends [max_live_words] to the artifact.  Benches with natural
   checkpoints (end of a run, end of a decile) call [note_gc] there. *)
let gc_stats = ref false
let max_live_words = ref 0

let note_gc () =
  if !gc_stats then begin
    Gc.full_major ();
    let live = (Gc.stat ()).Gc.live_words in
    if live > !max_live_words then max_live_words := live
  end

(* A minimal JSON emitter — enough for benchmark artifacts, so the
   bench needs no external JSON dependency. *)
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
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let to_file path j =
    let oc = open_out path in
    output_string oc (to_string j);
    close_out oc
end

(* All benches write their artifacts through this, so the [--gc-stats]
   annotation lands uniformly. *)
let write_json path (j : Json.t) =
  note_gc ();
  let j =
    match (j, !gc_stats) with
    | Json.Obj fields, true -> Json.Obj (fields @ [ ("max_live_words", Json.Int !max_live_words) ])
    | j, _ -> j
  in
  Json.to_file path j

(* A group with one member per site, fully formed. *)
type cluster = {
  w : World.t;
  members : Runtime.proc array;
  gid : Addr.group_id;
}

let make_cluster ?(seed = 0xBE5CL) ?(name = "bench") ?net_config ?runtime_config
    ?(backend = World.Sim) ~sites () =
  let w = World.create ~backend ~seed ?net_config ?runtime_config ~sites () in
  attach_trace w;
  let members =
    Array.init sites (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "b%d" s))
  in
  (* On the wall backend "run to the horizon" is real seconds, so
     formation waits on predicates instead; the simulator path is the
     historical one, untouched. *)
  let is_wall = World.kind w = Vsync_backend.Backend.Wall in
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) name));
  if is_wall then ignore (World.run_cond ~timeout_us:30_000_000 w (fun () -> !gid <> None))
  else World.run w;
  let gid = Option.get !gid in
  let joined = ref 0 in
  for i = 1 to sites - 1 do
    World.run_task w members.(i) (fun () ->
        ignore (Runtime.pg_lookup members.(i) name);
        match Runtime.pg_join members.(i) gid ~credentials:(Message.create ()) with
        | Ok () -> incr joined
        | Error e -> failwith ("bench cluster join: " ^ e))
  done;
  if is_wall then ignore (World.run_cond ~timeout_us:30_000_000 w (fun () -> !joined = sites - 1))
  else World.run w;
  { w; members; gid }

(* Per-site snapshot of the unified metrics registry, for embedding in
   a JSON artifact: gauges sample live state, so take this while the
   world of interest is still in scope. *)
let metrics_json w =
  Json.List
    (List.init (World.n_sites w) (fun s ->
         let snap = Vsync_obs.Metrics.snapshot (Runtime.metrics (World.runtime w s)) in
         Json.Obj
           (("site", Json.Int s)
           :: List.map
                (fun (name, v) ->
                  match v with
                  | Vsync_obs.Metrics.Counter_v n | Vsync_obs.Metrics.Gauge_v n ->
                    (name, Json.Int n)
                  | Vsync_obs.Metrics.Histo_v { count; sum; min; max } ->
                    ( name,
                      Json.Obj
                        [
                          ("count", Json.Int count); ("sum", Json.Int sum);
                          ("min", Json.Int min); ("max", Json.Int max);
                        ] ))
                snap)))

(* Messages padded to a target payload size. *)
let padded_msg bytes =
  let m = Message.create () in
  if bytes > 0 then Message.set_bytes m "pad" (Bytes.make bytes 'x');
  m

(* Counter snapshots: the protocol-primitive counters summed over all
   runtimes. *)
let prim_keys =
  [
    "prim.cbcast"; "prim.abcast"; "prim.gbcast"; "prim.gbcast_req"; "prim.reply";
    "prim.null_reply"; "prim.local_rpc";
  ]

let snapshot_prims w =
  List.map
    (fun key ->
      let total = ref 0 in
      for s = 0 to World.n_sites w - 1 do
        total := !total + Stats.Counter.get (Runtime.counters (World.runtime w s)) key
      done;
      (key, !total))
    prim_keys

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
  match List.sort compare us with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let at i = ms_of_us (List.nth sorted (min (n - 1) i)) in
    Some { median_ms = at (n / 2); p99_ms = at (n * 99 / 100); max_ms = at (n - 1) }
