module Rng = Vsync_util.Rng
module Tracer = Vsync_obs.Tracer
module Event = Vsync_obs.Event

type site = int

type config = {
  intra_site_us : int;
  inter_site_us : int;
  bandwidth_bytes_per_sec : int;
  per_packet_overhead_bytes : int;
  max_packet_bytes : int;
  loss_probability : float;
}

let default_config =
  {
    intra_site_us = 10;
    inter_site_us = 16_000;
    bandwidth_bytes_per_sec = 1_250_000;
    per_packet_overhead_bytes = 64;
    max_packet_bytes = 4096;
    loss_probability = 0.0;
  }

type burst = {
  p_enter : float;
  p_exit : float;
  loss_good : float;
  loss_bad : float;
}

(* Per-directed-link fault state.  Absent from the table means the link
   is clean; a present entry with default fields behaves identically, so
   installing and clearing faults never perturbs clean-link RNG draws
   (each field guards its own draw). *)
type link = {
  mutable l_loss : float;
  mutable l_extra_us : int;
  mutable l_jitter_us : int;
  mutable l_dup : float;
  mutable l_reorder : float;
  mutable l_reorder_span_us : int;
  mutable l_bw_factor : float;
  mutable l_burst : burst option;
  mutable l_bad : bool; (* current Gilbert–Elliott state *)
}

let fresh_link () =
  {
    l_loss = 0.0;
    l_extra_us = 0;
    l_jitter_us = 0;
    l_dup = 0.0;
    l_reorder = 0.0;
    l_reorder_span_us = 0;
    l_bw_factor = 1.0;
    l_burst = None;
    l_bad = false;
  }

type split = { sp_left : site list; sp_right : site list; sp_sym : bool }

type t = {
  engine : Engine.t;
  mutable cfg : config;
  n_sites : int;
  up : bool array;
  (* Earliest time each site's transmitter is free: models NIC
     serialization, which is what saturates throughput in Figure 2. *)
  tx_free : Engine.time array;
  (* Active splits; more than one may be in force at once (overlapping
     partitions), and a split may be one-way ([sym = false] blocks only
     left-to-right traffic — an asymmetric partition). *)
  mutable splits : split list;
  links : (site * site, link) Hashtbl.t;
  rng : Rng.t;
  (* Inter-site accounting since creation. *)
  mutable packets : int;
  mutable bytes : int;
  mutable lost : int;
  mutable dup : int;
  mutable reordered : int;
  mutable tracer : Tracer.t option;
}

let create engine cfg ~sites =
  if sites <= 0 then invalid_arg "Net.create: need at least one site";
  {
    engine;
    cfg;
    n_sites = sites;
    up = Array.make sites true;
    tx_free = Array.make sites 0;
    splits = [];
    links = Hashtbl.create 8;
    rng = Rng.split (Engine.rng engine);
    packets = 0;
    bytes = 0;
    lost = 0;
    dup = 0;
    reordered = 0;
    tracer = None;
  }

let config t = t.cfg
let n_sites t = t.n_sites
let engine t = t.engine
let set_tracer t tr = t.tracer <- Some tr
let tracer t = t.tracer

(* Fault decisions are worth tracing but must stay free when tracing is
   off: construct the event only once a listener is confirmed. *)
let trace_net t mk =
  match t.tracer with
  | Some tr when Tracer.wants tr Event.Net -> Tracer.emit tr (mk ())
  | Some _ | None -> ()

let check_site t s name =
  if s < 0 || s >= t.n_sites then invalid_arg (Printf.sprintf "Net.%s: bad site %d" name s)

let site_up t s =
  check_site t s "site_up";
  t.up.(s)

let crash_site t s =
  check_site t s "crash_site";
  t.up.(s) <- false

let restart_site t s =
  check_site t s "restart_site";
  t.up.(s) <- true;
  t.tx_free.(s) <- Engine.now t.engine

let set_loss t p = t.cfg <- { t.cfg with loss_probability = p }

let partition t left right =
  t.splits <- { sp_left = left; sp_right = right; sp_sym = true } :: t.splits

let partition_oneway t left right =
  t.splits <- { sp_left = left; sp_right = right; sp_sym = false } :: t.splits

let heal t = t.splits <- []

(* Remove one split by its site sets (either orientation), leaving any
   overlapping splits in force. *)
let heal_split t left right =
  let same a b = List.sort compare a = List.sort compare b in
  let matches sp =
    (same sp.sp_left left && same sp.sp_right right)
    || (same sp.sp_left right && same sp.sp_right left)
  in
  match List.find_opt matches t.splits with
  | None -> ()
  | Some sp -> t.splits <- List.filter (fun x -> x != sp) t.splits

let split_blocks sp a b =
  (List.mem a sp.sp_left && List.mem b sp.sp_right)
  || (sp.sp_sym && List.mem a sp.sp_right && List.mem b sp.sp_left)

(* [partitioned t a b]: is a packet from [a] to [b] blocked by any
   active split?  Directional — for a one-way split only the
   left-to-right direction is blocked. *)
let partitioned t a b = List.exists (fun sp -> split_blocks sp a b) t.splits

(* --- Per-link faults --- *)

let link t ~src ~dst name =
  check_site t src name;
  check_site t dst name;
  if src = dst then invalid_arg (Printf.sprintf "Net.%s: intra-site links have no faults" name);
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
    let l = fresh_link () in
    Hashtbl.replace t.links (src, dst) l;
    l

let check_prob p name =
  if p < 0.0 || p > 1.0 then invalid_arg (Printf.sprintf "Net.%s: probability out of [0,1]" name)

let set_link_loss t ~src ~dst p =
  check_prob p "set_link_loss";
  (link t ~src ~dst "set_link_loss").l_loss <- p

let set_link_delay t ~src ~dst ~extra_us ~jitter_us =
  if extra_us < 0 || jitter_us < 0 then invalid_arg "Net.set_link_delay: negative delay";
  let l = link t ~src ~dst "set_link_delay" in
  l.l_extra_us <- extra_us;
  l.l_jitter_us <- jitter_us

let set_link_dup t ~src ~dst p =
  check_prob p "set_link_dup";
  (link t ~src ~dst "set_link_dup").l_dup <- p

let set_link_reorder t ~src ~dst ?(span_us = 30_000) p =
  check_prob p "set_link_reorder";
  if span_us < 0 then invalid_arg "Net.set_link_reorder: negative span";
  let l = link t ~src ~dst "set_link_reorder" in
  l.l_reorder <- p;
  l.l_reorder_span_us <- span_us

let set_link_bandwidth_factor t ~src ~dst f =
  if f <= 0.0 then invalid_arg "Net.set_link_bandwidth_factor: factor must be positive";
  (link t ~src ~dst "set_link_bandwidth_factor").l_bw_factor <- f

let set_link_burst t ~src ~dst b =
  check_prob b.p_enter "set_link_burst";
  check_prob b.p_exit "set_link_burst";
  check_prob b.loss_good "set_link_burst";
  check_prob b.loss_bad "set_link_burst";
  let l = link t ~src ~dst "set_link_burst" in
  l.l_burst <- Some b;
  l.l_bad <- false

let clear_link t ~src ~dst =
  check_site t src "clear_link";
  check_site t dst "clear_link";
  Hashtbl.remove t.links (src, dst)

let clear_links t = Hashtbl.reset t.links

let send t ~src ~dst ~bytes deliver =
  check_site t src "send";
  check_site t dst "send";
  if bytes < 0 || bytes > t.cfg.max_packet_bytes then
    invalid_arg "Net.send: packet exceeds max_packet_bytes (fragment first)";
  if not t.up.(src) then () (* a dead site sends nothing *)
  else if src = dst then begin
    (* Intra-site hop: fixed cost, no medium contention, never lost. *)
    ignore (Engine.schedule t.engine ~delay:t.cfg.intra_site_us (fun () -> if t.up.(dst) then deliver ()))
  end
  else begin
    let wire_bytes = bytes + t.cfg.per_packet_overhead_bytes in
    t.packets <- t.packets + 1;
    t.bytes <- t.bytes + wire_bytes;
    let lk = Hashtbl.find_opt t.links (src, dst) in
    (* The Gilbert–Elliott chain steps once per packet offered to the
       link, whether or not the packet then survives. *)
    let burst_loss =
      match lk with
      | Some ({ l_burst = Some b; _ } as l) ->
        if l.l_bad then begin
          if Rng.bernoulli t.rng b.p_exit then l.l_bad <- false
        end
        else if Rng.bernoulli t.rng b.p_enter then l.l_bad <- true;
        if l.l_bad then b.loss_bad else b.loss_good
      | Some _ | None -> 0.0
    in
    let extra_loss = match lk with Some l -> l.l_loss | None -> 0.0 in
    let p_keep =
      (1.0 -. t.cfg.loss_probability) *. (1.0 -. extra_loss) *. (1.0 -. burst_loss)
    in
    if not (Rng.bernoulli t.rng p_keep) then begin
      t.lost <- t.lost + 1;
      trace_net t (fun () ->
          let reason = if burst_loss > 0.0 then "burst_loss" else "loss" in
          Event.Net_drop { src; dst; reason })
    end
    else begin
      let now = Engine.now t.engine in
      (* Serialize on the sender's transmitter, then propagate.  A
         degraded link stretches the serialization time. *)
      let tx_start = if t.tx_free.(src) > now then t.tx_free.(src) else now in
      let tx_time = wire_bytes * 1_000_000 / t.cfg.bandwidth_bytes_per_sec in
      let tx_time =
        match lk with
        | Some l when l.l_bw_factor <> 1.0 ->
          int_of_float (Float.round (float_of_int tx_time *. l.l_bw_factor))
        | Some _ | None -> tx_time
      in
      let tx_done = tx_start + tx_time in
      t.tx_free.(src) <- tx_done;
      let fault_delay =
        match lk with
        | None -> 0
        | Some l ->
          let jitter = if l.l_jitter_us > 0 then Rng.int_in t.rng 0 l.l_jitter_us else 0 in
          let detour =
            if l.l_reorder > 0.0 && Rng.bernoulli t.rng l.l_reorder then begin
              t.reordered <- t.reordered + 1;
              let d =
                if l.l_reorder_span_us > 0 then Rng.int_in t.rng 1 l.l_reorder_span_us else 0
              in
              trace_net t (fun () -> Event.Net_delay { src; dst; extra_us = d });
              d
            end
            else 0
          in
          l.l_extra_us + jitter + detour
      in
      let arrival = tx_done + t.cfg.inter_site_us + fault_delay in
      let deliver_checked () =
        (* Partition/destination checks happen at arrival time:
           a packet in flight when the link goes bad is lost. *)
        if t.up.(dst) && not (partitioned t src dst) then deliver ()
        else begin
          t.lost <- t.lost + 1;
          trace_net t (fun () ->
              let reason = if t.up.(dst) then "partition" else "dst_down" in
              Event.Net_drop { src; dst; reason })
        end
      in
      ignore (Engine.schedule_at t.engine arrival deliver_checked);
      match lk with
      | Some l when l.l_dup > 0.0 && Rng.bernoulli t.rng l.l_dup ->
        t.dup <- t.dup + 1;
        trace_net t (fun () -> Event.Net_dup { src; dst });
        let echo_at = arrival + Rng.int_in t.rng 1 2_000 in
        ignore (Engine.schedule_at t.engine echo_at deliver_checked)
      | Some _ | None -> ()
    end
  end

let packets_sent t = t.packets
let bytes_sent t = t.bytes
let packets_lost t = t.lost
let packets_duplicated t = t.dup
let packets_reordered t = t.reordered

(* The network's [Backend.t] view: what the transport and runtime
   layers consume instead of touching [Engine]/[Net] directly.  The rng
   handed out is the engine root, deliberately unsplit — splitting here
   would advance the root stream and shift the seeds of every later
   split (workload skew, nemesis), invalidating digest-locked traces. *)
let backend t =
  let module B = Vsync_backend.Backend in
  B.v ~kind:B.Sim
    ~now:(fun () -> Engine.now t.engine)
    ~schedule_at:(fun at f ->
      let h = Engine.schedule_at t.engine at f in
      B.handle_of_cancel (fun () -> Engine.cancel h))
    ~send:(fun src dst bytes deliver -> send t ~src ~dst ~bytes deliver)
    ~n_sites:t.n_sites ~max_packet_bytes:t.cfg.max_packet_bytes
    ~intra_site_us:t.cfg.intra_site_us
    ~rng:(Engine.rng t.engine)
