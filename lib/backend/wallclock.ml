module Rng = Vsync_util.Rng
module Heap = Vsync_util.Heap

type config = {
  wc_intra_site_us : int;
  wc_inter_site_us : int;
  wc_jitter_us : int;
  wc_max_packet_bytes : int;
}

let default_config =
  { wc_intra_site_us = 1; wc_inter_site_us = 5; wc_jitter_us = 2; wc_max_packet_bytes = 4096 }

type cell = { mutable dead : bool }
type ev = { at : int; action : unit -> unit; cell : cell }

type t = {
  cfg : config;
  sites : int;
  queue : ev Heap.t;
  rng : Rng.t;
  t0 : float;
  mutable stopped : bool;
  mutable fired : int;
  mutable live : int;
}

(* [Unix.gettimeofday] rather than a monotonic source because the
   stdlib exposes nothing monotonic; a clock step mid-run can distort a
   measurement but not correctness (deadlines are compared against the
   same clock that minted them). *)
let create ?(config = default_config) ?(seed = 0x3A11C10CL) ~sites () =
  if sites <= 0 then invalid_arg "Wallclock.create: need at least one site";
  {
    cfg = config;
    sites;
    queue = Heap.create ~compare:(fun a b -> compare a.at b.at);
    rng = Rng.create seed;
    t0 = Unix.gettimeofday ();
    stopped = false;
    fired = 0;
    live = 0;
  }

let now t = int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e6)

let schedule_at t at action =
  let at = max at (now t) in
  let cell = { dead = false } in
  Heap.push t.queue { at; action; cell };
  t.live <- t.live + 1;
  fun () ->
    if not cell.dead then begin
      cell.dead <- true;
      t.live <- t.live - 1
    end

let send t src dst bytes deliver =
  if src < 0 || src >= t.sites || dst < 0 || dst >= t.sites then
    invalid_arg "Wallclock.send: bad site";
  if bytes < 0 || bytes > t.cfg.wc_max_packet_bytes then
    invalid_arg "Wallclock.send: packet exceeds max_packet_bytes (fragment first)";
  let delay =
    if src = dst then t.cfg.wc_intra_site_us
    else
      t.cfg.wc_inter_site_us
      + (if t.cfg.wc_jitter_us > 0 then Rng.int_in t.rng 0 t.cfg.wc_jitter_us else 0)
  in
  let _cancel : unit -> unit = schedule_at t (now t + delay) deliver in
  ()

(* How much of a wait [sleep_until] spins instead of sleeping.  The OS
   wakes a sleeper late, about 70 µs at the median and 150 µs at p99 on
   a 2-core Linux container, so the last 200 µs of every wait are spent
   polling the clock: a timer then fires within a few µs of its
   deadline, at the price of a busy core for that stretch. *)
let spin_margin_us = 200

let sleep_until t at =
  let gap = at - now t in
  if gap > spin_margin_us then Unix.sleepf (float_of_int (gap - spin_margin_us) *. 1e-6);
  while now t < at do
    Domain.cpu_relax ()
  done

let fire t e =
  if not e.cell.dead then begin
    e.cell.dead <- true;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    e.action ()
  end

(* The one event loop.  Each pass fires the earliest event if it is
   due and inside the horizon; otherwise it asks [pred], then sleeps
   to the next event or the deadline, whichever is first.  An event due
   after [deadline] is left for a later call, and one scheduled during
   the run is due at [now] or later, so a backlog of events that keep
   rescheduling themselves ends once the clock passes the deadline. *)
let run_while t ~deadline pred =
  t.stopped <- false;
  let rec loop () =
    if t.stopped then false
    else
      match Heap.peek t.queue with
      | Some e when e.at <= deadline && e.at <= now t ->
        ignore (Heap.pop t.queue);
        fire t e;
        loop ()
      | head ->
        if pred () then true
        else if now t >= deadline then false
        else begin
          sleep_until t (match head with Some e -> min e.at deadline | None -> deadline);
          loop ()
        end
  in
  loop ()

let run_until t until =
  let fired0 = t.fired in
  ignore (run_while t ~deadline:until (fun () -> false));
  t.fired - fired0

let stop t = t.stopped <- true
let events_fired t = t.fired
let pending t = t.live

let backend t =
  Backend.v ~kind:Backend.Wall
    ~now:(fun () -> now t)
    ~schedule_at:(fun at f -> Backend.handle_of_cancel (schedule_at t at f))
    ~send:(fun src dst bytes deliver -> send t src dst bytes deliver)
    ~n_sites:t.sites ~max_packet_bytes:t.cfg.wc_max_packet_bytes
    ~intra_site_us:t.cfg.wc_intra_site_us ~rng:t.rng
