module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net
module Trace = Vsync_sim.Trace
module Stats = Vsync_util.Stats
module Backend = Vsync_backend.Backend
module Wallclock = Vsync_backend.Wallclock

type backend_kind = Sim | Wall of Wallclock.config

(* The driver is whatever owns the clock; everything above it sees only
   [bk].  Sim-only capabilities (fault injection, the engine itself)
   dispatch on this and refuse on a wall-clock world rather than
   silently doing nothing. *)
type driver =
  | Dsim of { eng : Engine.t; network : Net.t }
  | Dwall of Wallclock.t

type t = {
  bk : Backend.t;
  driver : driver;
  tracer : Trace.t;
  runtimes : Runtime.t array;
}

let make_runtimes ~runtime_config ~clock_skew_us ~skew_rng ~sites fabric tracer =
  Array.init sites (fun site ->
      let base = Option.value ~default:Runtime.default_config runtime_config in
      let config =
        if clock_skew_us = 0 then base
        else
          {
            base with
            Runtime.clock_offset_us =
              Vsync_util.Rng.int_in skew_rng (-clock_skew_us) clock_skew_us;
          }
      in
      Runtime.create ~config fabric ~site ~trace:tracer ())

let create ?(backend = Sim) ?(seed = 0x15155EEDL) ?(net_config = Net.default_config)
    ?runtime_config ?(clock_skew_us = 0) ~sites () =
  match backend with
  | Sim ->
    let eng = Engine.create ~seed () in
    let network = Net.create eng net_config ~sites in
    let tracer = Trace.create eng in
    Engine.set_tracer eng (Trace.obs tracer);
    Net.set_tracer network (Trace.obs tracer);
    let bk = Net.backend network in
    let fabric = Runtime.make_fabric bk in
    (* [Backend.rng bk] is the engine root, so this split is exactly the
       one the pre-seam harness performed — seeded runs keep their
       digests. *)
    let skew_rng = Vsync_util.Rng.split (Backend.rng bk) in
    let runtimes =
      make_runtimes ~runtime_config ~clock_skew_us ~skew_rng ~sites fabric tracer
    in
    { bk; driver = Dsim { eng; network }; tracer; runtimes }
  | Wall config ->
    let wall = Wallclock.create ~config ~seed ~sites () in
    let tracer = Trace.create_clock ~now:(fun () -> Wallclock.now wall) in
    let bk = Wallclock.backend wall in
    let fabric = Runtime.make_fabric bk in
    let skew_rng = Vsync_util.Rng.split (Backend.rng bk) in
    let runtimes =
      make_runtimes ~runtime_config ~clock_skew_us ~skew_rng ~sites fabric tracer
    in
    { bk; driver = Dwall wall; tracer; runtimes }

let backend t = t.bk
let kind t = Backend.kind t.bk

let engine t =
  match t.driver with
  | Dsim d -> d.eng
  | Dwall _ -> invalid_arg "World.engine: wall-clock world has no engine"

let net t =
  match t.driver with
  | Dsim d -> d.network
  | Dwall _ -> invalid_arg "World.net: wall-clock world has no simulated network"

let trace t = t.tracer
let n_sites t = Array.length t.runtimes

let runtime t s =
  if s < 0 || s >= Array.length t.runtimes then invalid_arg "World.runtime: bad site";
  t.runtimes.(s)

let proc t ~site ~name = Runtime.spawn_proc (runtime t site) ~name ()

let run_task _t p f = Runtime.spawn_task p f

(* Failure-detector probes recur forever once a group spans sites, so
   "run until the queue drains" would never return.  Default to a
   horizon comfortably beyond every protocol timeout. *)
let default_horizon_us = 60_000_000

let now t = Backend.now t.bk

let run ?until t =
  let until = match until with Some u -> u | None -> now t + default_horizon_us in
  match t.driver with
  | Dsim d -> Engine.run ~until d.eng
  | Dwall w -> ignore (Wallclock.run_until w until)

let run_for t us = run ~until:(now t + us) t

(* Wall-clock worlds can't run to a virtual horizon and ask questions
   after — 60 µs-accounted seconds is 60 real seconds.  Instead: drive
   until a completion predicate holds.  The simulator asks it between
   [slice_us] slices of virtual time; the wall clock asks it whenever
   no event is due, and at the end of every slice, so a backlog that
   never leaves the loop idle still has it asked every [slice_us]. *)
let run_cond ?(slice_us = 2_000) ~timeout_us t pred =
  let deadline = now t + timeout_us in
  let rec go () =
    if pred () then true
    else if now t >= deadline then pred ()
    else
      match t.driver with
      | Dsim _ ->
        run_for t (min slice_us (deadline - now t));
        go ()
      | Dwall w -> Wallclock.run_while w ~deadline:(min deadline (now t + slice_us)) pred || go ()
  in
  go ()

let crash_site t s =
  Runtime.crash (runtime t s);
  Net.crash_site (net t) s

let restart_site t s =
  Net.restart_site (net t) s;
  Runtime.restart (runtime t s)

let partition t left right = Net.partition (net t) left right
let heal t = Net.heal (net t)

let nemesis_actions t =
  {
    Vsync_sim.Nemesis.crash_site = crash_site t;
    Vsync_sim.Nemesis.restart_site = restart_site t;
  }

let apply_nemesis t plan = Vsync_sim.Nemesis.install ~actions:(nemesis_actions t) (net t) plan

let total_counters t =
  let acc = Stats.Counter.create () in
  Array.iter
    (fun rt ->
      List.iter (fun (k, v) -> Stats.Counter.add acc k v) (Stats.Counter.to_list (Runtime.counters rt)))
    t.runtimes;
  (match t.driver with
  | Dsim d ->
    List.iter (fun (k, v) -> Stats.Counter.add acc k v) (Stats.Counter.to_list (Net.counters d.network))
  | Dwall _ -> ());
  Stats.Counter.to_list acc
