module Ring = Vsync_util.Ring

type sink = Event.record -> unit

type t = {
  now : unit -> int;
  mutable on : bool;
  mutable mask : int;
  ring : Event.record Ring.t;
  mutable sinks : sink list;
  mutable n_emitted : int;
}

(* Engine events (every scheduled callback) are off even when tracing is
   on: they multiply the stream several-fold and matter only when
   debugging the scheduler itself. *)
let default_mask =
  List.fold_left
    (fun m c -> if c = Event.Engine then m else m lor Event.cls_bit c)
    0 Event.all_classes

let create ~now =
  let ring = Ring.create ~capacity:200_000 in
  { now; on = false; mask = default_mask; ring; sinks = []; n_emitted = 0 }

let enabled t = t.on
let set_enabled t b = t.on <- b
let mask t = t.mask
let set_mask t m = t.mask <- m

let set_classes t classes =
  t.mask <- List.fold_left (fun m c -> m lor Event.cls_bit c) 0 classes

let wants t cls = t.on && t.mask land Event.cls_bit cls <> 0

let emit t ev =
  if wants t (Event.cls_of ev) then begin
    let r = { Event.at = t.now (); ev } in
    t.n_emitted <- t.n_emitted + 1;
    Ring.push t.ring r;
    match t.sinks with
    | [] -> ()
    | sinks -> List.iter (fun s -> s r) sinks
  end

let add_sink t s = t.sinks <- t.sinks @ [ s ]
let records t = Ring.to_list t.ring
let iter t f = Ring.iter t.ring f
let emitted t = t.n_emitted
let evicted t = Ring.evicted t.ring
let clear t = Ring.clear t.ring
