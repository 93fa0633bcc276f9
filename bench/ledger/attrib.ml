(* Attribution of a traced run, from outside the stack.

   The ledger stamps what a client sees (when an operation was due, when
   it was issued, when each member's handler ran, when it completed);
   the typed event stream says what happened in between.  This sink
   joins the two and cuts each operation's latency into consecutive
   segments along its critical path, each owned by one layer, so the
   segments of an operation sum exactly to its end-to-end latency.

   The joins, all made from event order alone:
   - the k-th [Originate] of a protocol at site s is the k-th operation
     the ledger issued from s in that mode (one sender per site);
   - a frame rides the first packet sent on its link at or after its
     [Frame_tx], packets taken greedily up to their frame count (the
     packet may carry frames the stream does not show, so a frame is
     never placed later than the packet that really carried it);
   - packets on a link arrive in the order they were sent;
   - an ABCAST's critical path runs through the last vote to arrive at
     its origin, and every operation's through the member whose handler
     ran last.

   State is per uid and dropped when the operation completes; the
   memory held is bounded by the operations and packets in flight. *)

module Event = Vsync_obs.Event
module Types = Vsync_core.Types

(* Segment labels, in critical-path order. *)
let gen = 0
let originate = 1
let stage = 2
let hop = 3
let recv = 4
let holdback = 5
let commit = 6
let deliver_wait = 7
let upcall = 8
let reply = 9

let labels =
  [|
    "gen.lateness_us"; "runtime.originate_wait_us"; "transport.stage_us"; "backend.hop_us";
    "transport.recv_us"; "causal.holdback_us"; "total.commit_us"; "total.deliver_wait_us";
    "tasks.upcall_wait_us"; "runtime.reply_us";
  |]

(* One frame's trip over one link: Frame_tx, Packet_send, Packet_recv,
   Frame_rx (-1 until seen). *)
type leg = { mutable tx : int; mutable ps : int; mutable pr : int; mutable rx : int }

type uid = {
  key : int * int;  (** (usite, useq) *)
  op : int;
  abcast : bool;
  origin : int;
  due : int;
  issued : int;
  orig_at : int;
  data : leg array;  (** origin → site: cb_data or ab_data *)
  prio : leg array;  (** voter site → origin: ab_prio *)
  commit_leg : leg array;  (** origin → site: ab_commit *)
  deliver : int array;  (** Deliver, per site *)
  mutable voter : int;  (** site of the last vote to reach the origin *)
  mutable commit_at : int;
  mutable last_site : int;  (** site of the member whose handler ran last *)
  mutable last_at : int;
}

type link = { frames : leg Queue.t; flight : leg list Queue.t }

type t = {
  n : int;
  links : link array;  (** [src * n + dst] *)
  issued_q : (int * string, (int * int * int) Queue.t) Hashtbl.t;
      (** (site, protocol) → (op, due, issued), in issue order *)
  by_key : (int * int, uid) Hashtbl.t;
  by_op : (int, uid) Hashtbl.t;
  sums : float array;  (** per label, over operations with a complete path *)
  mutable e2e : float;  (** Σ end-to-end µs over every completed operation *)
  mutable chained : int;
  mutable abcasts : int;
  mutable votes : int;
  mutable events : int;
  mutable crash_at : int;
  mutable detect_us : int;
  wedged : (int, int) Hashtbl.t;  (** view id → first Wedge *)
  installs : (int, int * int) Hashtbl.t;  (** view id → (change began, last install) *)
  mutable flushes : int;
  jsonl : out_channel option;
}

let create ?jsonl ~sites () =
  {
    n = sites;
    links =
      Array.init (sites * sites) (fun _ -> { frames = Queue.create (); flight = Queue.create () });
    issued_q = Hashtbl.create 16;
    by_key = Hashtbl.create 1024;
    by_op = Hashtbl.create 1024;
    sums = Array.make (Array.length labels) 0.0;
    e2e = 0.0;
    chained = 0;
    abcasts = 0;
    votes = 0;
    events = 0;
    crash_at = -1;
    detect_us = -1;
    wedged = Hashtbl.create 8;
    installs = Hashtbl.create 8;
    flushes = 0;
    jsonl;
  }

let proto_name = function
  | Types.Cbcast -> "cbcast"
  | Types.Abcast -> "abcast"
  | Types.Gbcast -> "gbcast"

(* --- ledger stamps --- *)

let issued t ~op ~site ~mode ~due ~at =
  let key = (site, proto_name mode) in
  let q =
    match Hashtbl.find_opt t.issued_q key with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.issued_q key q;
      q
  in
  Queue.push (op, due, at) q

let handled t ~op ~site ~at =
  match Hashtbl.find_opt t.by_op op with
  | Some u when at >= u.last_at ->
    u.last_site <- site;
    u.last_at <- at
  | Some _ | None -> ()

let crashed t ~at = t.crash_at <- at

(* Packets in flight to or from a crashed site are lost, and a
   restarted one starts fresh channels: forget its links so the
   per-link FIFO pairing stays aligned. *)
let reset_site t ~site =
  for s = 0 to t.n - 1 do
    List.iter
      (fun l ->
        Queue.clear l.frames;
        Queue.clear l.flight)
      [ t.links.((s * t.n) + site); t.links.((site * t.n) + s) ]
  done

(* --- the critical path of one completed operation --- *)

let path u ~done_at =
  let d = Array.make (Array.length labels) 0 in
  let ok = ref true in
  let seg i a b = if a < 0 || b < a then ok := false else d.(i) <- d.(i) + (b - a) in
  let link (l : leg) =
    seg stage l.tx l.ps;
    seg hop l.ps l.pr;
    seg recv l.pr l.rx
  in
  let s = u.last_site in
  seg gen u.due u.issued;
  if s < 0 then ok := false
  else if not u.abcast then begin
    if s = u.origin then begin
      seg originate u.issued u.orig_at;
      seg holdback u.orig_at u.deliver.(s)
    end
    else begin
      let l = u.data.(s) in
      seg originate u.issued l.tx;
      link l;
      seg holdback l.rx u.deliver.(s)
    end
  end
  else if u.voter < 0 then ok := false
  else begin
    let dl = u.data.(u.voter) and pl = u.prio.(u.voter) in
    seg originate u.issued dl.tx;
    link dl;
    seg commit dl.rx pl.tx;
    link pl;
    seg commit pl.rx u.commit_at;
    if s = u.origin then seg deliver_wait u.commit_at u.deliver.(s)
    else begin
      let cl = u.commit_leg.(s) in
      seg deliver_wait u.commit_at cl.tx;
      link cl;
      seg deliver_wait cl.rx u.deliver.(s)
    end
  end;
  if s >= 0 then begin
    seg upcall u.deliver.(s) u.last_at;
    seg reply u.last_at done_at
  end;
  if !ok then Some d else None

let completed t ~op ~at =
  match Hashtbl.find_opt t.by_op op with
  | None -> ()
  | Some u ->
    Hashtbl.remove t.by_op op;
    Hashtbl.remove t.by_key u.key;
    t.e2e <- t.e2e +. float_of_int (at - u.due);
    (match path u ~done_at:at with
    | Some d ->
      t.chained <- t.chained + 1;
      Array.iteri (fun i x -> t.sums.(i) <- t.sums.(i) +. float_of_int x) d
    | None -> ())

(* --- the event stream --- *)

let find t usite useq = Hashtbl.find_opt t.by_key (usite, useq)

let leg_of u ~kind ~src ~dst =
  match kind with
  | "cb_data" | "ab_data" when src = u.origin -> Some u.data.(dst)
  | "ab_prio" when dst = u.origin -> Some u.prio.(src)
  | "ab_commit" when src = u.origin -> Some u.commit_leg.(dst)
  | _ -> None

let fresh_legs n = Array.init n (fun _ -> { tx = -1; ps = -1; pr = -1; rx = -1 })

let on_originate t ~at ~site ~proto ~usite ~useq =
  match Hashtbl.find_opt t.issued_q (site, proto) with
  | Some q when not (Queue.is_empty q) ->
    let op, due, issued = Queue.pop q in
    let abcast = String.equal proto "abcast" in
    if abcast then t.abcasts <- t.abcasts + 1;
    let u =
      {
        key = (usite, useq);
        op;
        abcast;
        origin = site;
        due;
        issued;
        orig_at = at;
        data = fresh_legs t.n;
        prio = fresh_legs t.n;
        commit_leg = fresh_legs t.n;
        deliver = Array.make t.n (-1);
        voter = -1;
        commit_at = -1;
        last_site = -1;
        last_at = -1;
      }
    in
    Hashtbl.replace t.by_key (usite, useq) u;
    Hashtbl.replace t.by_op op u
  | Some _ | None -> ()

let on_view_install t ~at ~view_id =
  match Hashtbl.find_opt t.installs view_id with
  | Some (start, _) -> Hashtbl.replace t.installs view_id (start, at)
  | None ->
    (* The change began at the first Wedge of the newest older view. *)
    let prev =
      Hashtbl.fold (fun v _ best -> if v < view_id && v > best then v else best) t.wedged (-1)
    in
    let start = if prev < 0 then at else Hashtbl.find t.wedged prev in
    Hashtbl.replace t.installs view_id (start, at)

let on_event t (r : Event.record) =
  t.events <- t.events + 1;
  let at = r.Event.at in
  (match r.Event.ev with
  | Event.Originate { site; proto; usite; useq; _ } -> on_originate t ~at ~site ~proto ~usite ~useq
  | Event.Frame_tx { site; dst; kind; usite; useq } -> (
    match find t usite useq with
    | Some u -> (
      match leg_of u ~kind ~src:site ~dst with
      | Some l when l.tx < 0 ->
        l.tx <- at;
        Queue.push l t.links.((site * t.n) + dst).frames
      | Some _ | None -> ())
    | None -> ())
  | Event.Frame_rx { site; src; kind; usite; useq } -> (
    match find t usite useq with
    | Some u -> (
      match leg_of u ~kind ~src ~dst:site with
      | Some l when l.rx < 0 -> l.rx <- at
      | Some _ | None -> ())
    | None -> ())
  | Event.Packet_send { site; dst; nframes; _ } ->
    let lk = t.links.((site * t.n) + dst) in
    let rec take k acc =
      if k = 0 || Queue.is_empty lk.frames then acc
      else begin
        let l = Queue.pop lk.frames in
        l.ps <- at;
        take (k - 1) (l :: acc)
      end
    in
    Queue.push (take nframes []) lk.flight
  | Event.Packet_recv { site; src; _ } -> (
    match Queue.take_opt t.links.((src * t.n) + site).flight with
    | Some legs -> List.iter (fun l -> if l.pr < 0 then l.pr <- at) legs
    | None -> ())
  | Event.Ab_vote { site; voter; usite; useq; _ } -> (
    match find t usite useq with
    | Some u when site = u.origin ->
      u.voter <- voter;
      t.votes <- t.votes + 1
    | Some _ | None -> ())
  | Event.Ab_commit { site; usite; useq; _ } -> (
    match find t usite useq with
    | Some u when site = u.origin -> u.commit_at <- at
    | Some _ | None -> ())
  | Event.Deliver { site; usite; useq; _ } -> (
    match find t usite useq with
    | Some u when u.deliver.(site) < 0 -> u.deliver.(site) <- at
    | Some _ | None -> ())
  | Event.Wedge { view_id; _ } ->
    if not (Hashtbl.mem t.wedged view_id) then Hashtbl.replace t.wedged view_id at;
    if t.crash_at >= 0 && t.detect_us < 0 then t.detect_us <- at - t.crash_at
  | Event.Flush _ -> t.flushes <- t.flushes + 1
  | Event.View_install { view_id; _ } -> on_view_install t ~at ~view_id
  | _ -> ());
  match (t.jsonl, Event.uid_of r.Event.ev) with
  | Some oc, Some (usite, useq) -> (
    match find t usite useq with
    | Some u when u.op mod 100 = 0 ->
      output_string oc (Vsync_obs.Jsonl.of_record r);
      output_char oc '\n'
    | Some _ | None -> ())
  | _ -> ()

(* --- results --- *)

(* Per-layer means over the operations whose path was reconstructed,
   and how much of all end-to-end time those paths account for, over
   every world of a run. *)
let summary ts =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  let chained = sum (fun t -> t.chained) and abcasts = sum (fun t -> t.abcasts) in
  let total f = List.fold_left (fun acc t -> acc +. f t) 0.0 ts in
  let sums = Array.init (Array.length labels) (fun i -> total (fun t -> t.sums.(i))) in
  let e2e = total (fun t -> t.e2e) in
  let episodes = sum (fun t -> Hashtbl.length t.installs) in
  let flush_us =
    sum (fun t -> Hashtbl.fold (fun _ (start, last) acc -> acc + (last - start)) t.installs 0)
  in
  let detects = List.filter_map (fun t -> if t.detect_us < 0 then None else Some t.detect_us) ts in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  List.filteri (fun i _ -> i <> gen)
    (Array.to_list
       (Array.mapi
          (fun i l -> (l, if chained = 0 then 0.0 else sums.(i) /. float_of_int chained))
          labels))
  @ [
      ("total.votes_per_abcast", ratio (sum (fun t -> t.votes)) abcasts);
      ("membership.detect_ms", ratio (List.fold_left ( + ) 0 detects) (1000 * List.length detects));
      ("membership.flush_ms", ratio flush_us (1000 * episodes));
      ("membership.flush_attempts", ratio (sum (fun t -> t.flushes)) episodes);
      ("membership.views", ratio episodes (List.length ts));
      ( "obs.unattributed_frac",
        if e2e <= 0.0 then 1.0 else 1.0 -. (Array.fold_left ( +. ) 0.0 sums /. e2e) );
    ]

let events ts = List.fold_left (fun acc t -> acc + t.events) 0 ts
