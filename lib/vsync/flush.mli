(** The view change as a pure step function.

    One group copy's side of the flush that wedges a view, reconciles
    what each member holds and installs the next view atomically
    (paper Sec 3.2), for both roles: the coordinator's (quorum test,
    wedge-ack collection, fetch plan, commit) and the member's (wedge
    dominance, the commit fence, the install plan).  It also owns the
    queue of membership events and GBCASTs waiting for a change, their
    routing to the acting coordinator, and the minority side of a
    partition.

    [step] does no I/O: it maps a state and an input to the next state
    and the effects to run, in order.  {!Copy} runs it: it answers what
    the core cannot see (engine reports for a wedge ack, stored bodies,
    liveness of local processes) and feeds it back as inputs, and
    passes the rest to the runtime's interpreter, which asks a join
    validator for its verdict. *)

open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

(** A membership event or GBCAST waiting for a view change. *)
type event =
  | Ev_join of Addr.proc * Message.t  (** joiner and its credentials *)
  | Ev_leave of Addr.proc
  | Ev_fail of Addr.proc * bool  (** certain: reported by the victim's own site *)
  | Ev_gb of uid * Message.t

(** One member's wedge acknowledgement, indexed for reconciliation. *)
type ack = {
  a_cb_known : Uid_set.t;
  a_ab_uids : Uid_set.t;  (** uids of [a_ab_report] *)
  a_ab_report : Proto.ab_report list;
  a_ab_counter : int;
  a_already : Proto.frame option;
}

(** What the coordinator decides from a complete set of wedge acks. *)
type resolution = {
  r_missing_cb : uid list;  (** CBCASTs some wedged site has not received *)
  r_ab_finalize : (uid * prio) list;  (** final priorities, sorted by uid *)
  r_ab_drop : uid list;  (** uncommitted ABCASTs from dead originators *)
  r_ab_missing : (uid * prio) list;  (** the finalized ABCASTs some site lacks *)
}

type phase =
  | Collecting of (int * ack) list  (** acks so far, in arrival order *)
  | Fetching of { res : resolution; wait : int list; fetched : Proto.stored list }
  | Validating of { res : resolution; fetched : Proto.stored list }
      (** the batch's joins are with the validator *)
  | Committed
      (** the commit is on the wire; the record stays until this copy
          installs, so no new change starts against the retiring view *)

(** The change this site coordinates. *)
type change = {
  c_attempt : int;
  c_batch : event list;
  c_sites : int list;  (** wedge set, self included *)
  c_phase : phase;
}

type wedge = { w_attempt : int; w_coord : int; w_epoch : int }

(** A view-change attempt found this component below quorum: it is
    wedged with no change in flight and probes its suspects.  Its
    coordinator must not install views, since doing so on both sides of
    a split is exactly split-brain.  Three ways out: a probe reply shows
    a suspected site is reachable at our view (false alarm, or a heal
    before eviction), so it is folded back in and the change reruns; a
    reply shows the primary partition moved to a newer view without us,
    so the copy is torn down and its members rejoin fresh through state
    transfer; or the probes run dry and the group is assumed
    dissolved. *)
type minority = { m_attempt : int; m_rounds : int  (** probe rounds so far *) }

type state = {
  me : int;  (** this site *)
  epoch : int;  (** this site's transport epoch, stamped on its wedges and commits *)
  gname : string;
  view : View.t;
  suspects : Int_set.t;  (** member sites this site suspects *)
  queue : event list;
      (** oldest first: the one place an unprocessed event waits *)
  change : change option;
  wedge : wedge option;
  last_attempt : int;
  last_commit : Proto.frame option;
  minority : minority option;
  outstanding : (uid * Message.t) list;
      (** GBCASTs this site originated that no installed view has
          delivered yet, newest first; re-routed at every install *)
  leaving : Addr.proc list;
      (** local processes whose leave no installed view has carried
          out yet, newest first; re-routed at every install *)
}

type timer =
  | Wedge_retry of int  (** re-send the attempt's wedge to silent sites *)
  | Reroute  (** hand the queue to whoever coordinates now *)
  | Repropose  (** start a change if one is due *)
  | Probe of int  (** the minority entered at this attempt probes again *)

(** Trace points. *)
type note =
  | Flush_started of int  (** attempt *)
  | Wedged
  | Fenced of { view_id : int; attempt : int; src : int }
  | No_coordinator
  | Body_missing of uid
  | Minority_entered of { survivors : int; needed : int }
  | Minority_left

type effect =
  | Send of int * Proto.frame
  | Ack_wedge of { dst : int; attempt : int }
      (** send this site's wedge ack for the current view, built from its engines *)
  | Arm of int * timer  (** feed [Timer] after this many µs, if the copy survives *)
  | Note of note
  | Refuse_join of Addr.proc * string
  | Check_alive of { procs : Addr.proc list; rest : event list }
      (** answer with [Alive_here]: which of these local processes live.
          A change is starting; [rest] are events still to route after it *)
  | Validate of (Addr.proc * Message.t) list  (** answer with [Refused] *)
  | Fetch_local of { attempt : int; uids : uid list }
      (** answer with this site's own [Fetch_reply] *)
  | Commit of int list * Proto.frame  (** broadcast a commit this site built *)
  | Retire of Proto.frame
      (** deliver the retiring view's messages as the commit settles
          them (stabilize, finalize, drop), then feed [Retired] *)
  | Install of { retiring : View.t option; commit : Proto.frame }
      (** the new view is the state's: run the install mechanics, then
          feed [Installed] unless the group dissolved *)
  | Probe_sites of int list  (** send a view probe to each site *)
  | Teardown of { new_view_id : int; verdict : int; notify : int list }
      (** discard this copy, telling [notify] the view id [verdict] *)

type input =
  | Event of event  (** route to the acting coordinator *)
  | Gbcast of uid * Message.t  (** a GBCAST originated here *)
  | Frame of int * Proto.frame  (** a membership or flush frame from a site *)
  | Retired of Proto.frame
  | Installed of View.t
  | Site_down of { site : int; certain : bool }
  | Site_recovered of int
  | Timer of timer
  | Alive_here of { alive : Addr.proc list; rest : event list }
  | Refused of Addr.proc list

(** [create ~me ~epoch ~gname view] is a fresh copy holding [view]. *)
val create : me:int -> epoch:int -> gname:string -> View.t -> state

val step : state -> input -> state * effect list

(** [adopt ~me ~epoch commit] is the copy a commit creates at a site
    holding none, when the new view has a member there. *)
val adopt : me:int -> epoch:int -> Proto.frame -> (state * effect list) option

(** A wedge is in force: new sends wait for the next view. *)
val wedged : state -> bool
