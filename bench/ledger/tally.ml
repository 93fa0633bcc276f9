(* The ledger's own record of the operations it issues: who delivered
   each one and when, when it completed, and the invariants every run
   must uphold — exactly-once delivery, CBCAST FIFO per sender, one
   ABCAST order across members, a reply from every member of an RPC.

   Operations are identified by an [op] field the ledger writes into
   each message; nothing here reads protocol state beyond the public
   [Runtime] calls a client would make. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

let op_field = "op"
let entry = Vsync_msg.Entry.user 0

(* A growable int buffer with nearest-rank percentiles. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let count s = s.n

  let percentile s p =
    if s.n = 0 then Float.nan
    else begin
      let sorted = Array.sub s.a 0 s.n in
      Array.sort compare sorted;
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int s.n)) in
      float_of_int sorted.(max 0 (min (s.n - 1) (rank - 1)))
    end
end

(* What a whole run accumulates across its worlds (one per repetition). *)
type acc = {
  lat : Samples.t;  (** completed ops: due → done, world µs *)
  lateness : Samples.t;  (** open-loop ops: due → issue, world µs *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable handler_s : float;  (** real time inside ledger handlers *)
  mutable handler_calls : int;
  mutable call_s : float;  (** real time inside non-blocking send calls *)
  mutable calls : int;
}

let acc () =
  {
    lat = Samples.create ();
    lateness = Samples.create ();
    attempted = 0;
    failed = 0;
    violations = [];
    handler_s = 0.0;
    handler_calls = 0;
    call_s = 0.0;
    calls = 0;
  }

let violation acc fmt =
  Printf.ksprintf
    (fun s -> if List.length acc.violations < 20 then acc.violations <- s :: acc.violations)
    fmt

type op = {
  id : int;
  site : int;  (** the sender's site; every workload has one sender per site *)
  mode : Types.mode;
  due : int;  (** world µs the op was due; its issue time on closed loops *)
  mutable expect : int;  (** member bitmask of the delivery view, 0 until the first delivery *)
  mutable got : int;  (** member bitmask of deliveries so far *)
  mutable last : int;  (** world µs of the latest delivery *)
}

type member = {
  idx : int;
  proc : Runtime.proc;
  fifo : (int, int) Hashtbl.t;  (** sender site → last CBCAST op delivered here *)
  mutable view : int;  (** member bitmask of this member's current view, -1 until it is a member *)
  mutable ab_order : int list;  (** ABCAST ops in delivery order, newest first *)
}

(* Per-world state. *)
type t = {
  acc : acc;
  w : World.t;
  gid : Addr.group_id;
  mutable members : member list;  (** newest first *)
  by_addr : (int * int * int, int) Hashtbl.t;
  inflight : (int, op) Hashtbl.t;
  mutable next_id : int;
  mutable gone : int;  (** member bitmask excused from delivering: crashed or left *)
  mutable counting : bool;  (** inside the throughput window *)
  mutable window_deliveries : int;
  mutable deliveries : int;
  mutable on_done : op -> int -> unit;  (** closed-loop senders and the attribution hook *)
  mutable attrib : Attrib.t option;
  mutable oracle : Oracle.t option;
}

let create acc w gid =
  {
    acc;
    w;
    gid;
    members = [];
    by_addr = Hashtbl.create 8;
    inflight = Hashtbl.create 1024;
    next_id = 0;
    gone = 0;
    counting = false;
    window_deliveries = 0;
    deliveries = 0;
    on_done = (fun _ _ -> ());
    attrib = None;
    oracle = None;
  }

let addr_key (a : Addr.proc) = (a.Addr.site, a.Addr.idx, a.Addr.incarnation)

let complete t op ~at =
  Hashtbl.remove t.inflight op.id;
  Samples.add t.acc.lat (at - op.due);
  Option.iter (fun a -> Attrib.completed a ~op:op.id ~at) t.attrib;
  t.on_done op at

let check_complete t op =
  if op.expect <> 0 && (op.got lor t.gone) land op.expect = op.expect then complete t op ~at:op.last

let mask_of t (v : View.t) =
  List.fold_left
    (fun mask a ->
      match Hashtbl.find_opt t.by_addr (addr_key a) with
      | Some i -> mask lor (1 lsl i)
      | None -> mask)
    0 v.View.members

(* The delivery view is the one the member's monitor last reported:
   monitor upcalls and deliveries run as tasks of the member in the
   order the runtime issued them, whereas [pg_view] may already show a
   view installed after the delivery was queued. *)
let track_view t (m : member) =
  (match Runtime.pg_view m.proc t.gid with Some v -> m.view <- mask_of t v | None -> ());
  Runtime.pg_monitor m.proc t.gid (fun v _ -> m.view <- mask_of t v)

let on_delivery t m ~rpc msg =
  let r0 = Unix.gettimeofday () in
  (match Message.get_int msg op_field with
  | None -> ()
  | Some id -> (
    let now = World.now t.w in
    t.deliveries <- t.deliveries + 1;
    if t.counting then t.window_deliveries <- t.window_deliveries + 1;
    match Hashtbl.find_opt t.inflight id with
    | None -> violation t.acc "op %d delivered at member %d after it completed" id m.idx
    | Some op ->
      let bit = 1 lsl m.idx in
      if op.got land bit <> 0 then violation t.acc "op %d delivered twice at member %d" id m.idx
      else begin
        op.got <- op.got lor bit;
        op.last <- now;
        if m.view < 0 then
          m.view <- (match Runtime.pg_view m.proc t.gid with Some v -> mask_of t v | None -> 0);
        if op.expect = 0 then op.expect <- m.view;
        Option.iter (fun o -> Oracle.note_delivery o m.proc msg) t.oracle;
        (match op.mode with
        | Types.Cbcast ->
          let last = Option.value ~default:(-1) (Hashtbl.find_opt m.fifo op.site) in
          if id < last then
            violation t.acc "CBCAST FIFO: member %d delivered op %d after op %d from site %d" m.idx
              id last op.site;
          Hashtbl.replace m.fifo op.site id
        | Types.Abcast -> m.ab_order <- id :: m.ab_order
        | Types.Gbcast -> ());
        let site = Runtime.site (Runtime.runtime_of m.proc) in
        Option.iter (fun a -> Attrib.handled a ~op:id ~site ~at:now) t.attrib;
        if not rpc then check_complete t op
      end));
  t.acc.handler_s <- t.acc.handler_s +. (Unix.gettimeofday () -. r0);
  t.acc.handler_calls <- t.acc.handler_calls + 1

(* [add_member] registers [p] before it joins, so the view that admits
   it already maps to a ledger member. *)
let add_member t ?(rpc = false) ?(on_msg = fun _ -> ()) p =
  let idx = List.length t.members in
  if idx >= Sys.int_size - 1 then invalid_arg "Tally.add_member: too many members";
  let m = { idx; proc = p; fifo = Hashtbl.create 4; view = -1; ab_order = [] } in
  t.members <- m :: t.members;
  Hashtbl.replace t.by_addr (addr_key (Runtime.proc_addr p)) idx;
  Runtime.bind p entry (fun msg ->
      on_delivery t m ~rpc msg;
      on_msg msg);
  m

(* A member that crashed or left no longer owes deliveries; ops that
   only waited on it complete now. *)
let excuse t (m : member) =
  t.gone <- t.gone lor (1 lsl m.idx);
  List.iter (check_complete t) (Hashtbl.fold (fun _ op acc -> op :: acc) t.inflight [])

let new_op t ~site ~mode ~due =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.acc.attempted <- t.acc.attempted + 1;
  let op = { id; site; mode; due; expect = 0; got = 0; last = 0 } in
  Hashtbl.replace t.inflight id op;
  let now = World.now t.w in
  Samples.add t.acc.lateness (now - due);
  Option.iter (fun a -> Attrib.issued a ~op:id ~site ~mode ~due ~at:now) t.attrib;
  op

let message op payload =
  let m = Message.create () in
  Message.set_int m op_field op.id;
  Message.set_bytes m "pad" payload;
  m

(* An asynchronous multicast: complete once every member of its
   delivery view that did not crash or leave has delivered it. *)
let multicast t (sender : member) ~site ~mode ~due ~payload =
  let op = new_op t ~site ~mode ~due in
  let msg = message op payload in
  Option.iter (fun o -> Oracle.note_send o sender.proc ~mode ~tag:op.id) t.oracle;
  let r0 = Unix.gettimeofday () in
  ignore
    (Runtime.bcast_wait sender.proc mode ~dest:(Addr.Group t.gid) ~entry msg
       ~want:Types.No_reply);
  t.acc.call_s <- t.acc.call_s +. (Unix.gettimeofday () -. r0);
  t.acc.calls <- t.acc.calls + 1

(* A group RPC: complete when the call returns with a reply from every
   member of the caller's view. *)
let rpc t (caller : member) ~site ~due ~payload =
  let op = new_op t ~site ~mode:Types.Cbcast ~due in
  let expected =
    match Runtime.pg_view caller.proc t.gid with Some v -> View.n_members v | None -> 0
  in
  match
    Runtime.bcast caller.proc Types.Cbcast ~dest:(Addr.Group t.gid) ~entry
      (message op payload) ~want:Types.Wait_all
  with
  | Runtime.Replies l when List.length l = expected && expected > 0 ->
    complete t op ~at:(World.now t.w)
  | Runtime.Replies l ->
    violation t.acc "RPC op %d: %d replies from a view of %d" op.id (List.length l) expected
  | Runtime.All_failed -> violation t.acc "RPC op %d: all destinations failed" op.id

(* End of a world: ops still in flight failed; members must agree on
   the relative order of every pair of ABCASTs they both delivered. *)
let finish t =
  t.acc.failed <- t.acc.failed + Hashtbl.length t.inflight;
  let orders = List.map (fun m -> (m.idx, Array.of_list (List.rev m.ab_order))) t.members in
  List.iter
    (fun (i, a) ->
      List.iter
        (fun (j, b) ->
          if i < j then begin
            let pos = Hashtbl.create (Array.length b) in
            Array.iteri (fun k id -> Hashtbl.replace pos id k) b;
            let prev = ref (-1) in
            Array.iter
              (fun id ->
                match Hashtbl.find_opt pos id with
                | Some k ->
                  if k < !prev then
                    violation t.acc "ABCAST order: members %d and %d disagree at op %d" i j id;
                  prev := k
                | None -> ())
              a
          end)
        orders)
    orders
