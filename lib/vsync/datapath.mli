(** The data path as a step function.

    One group copy's side of the three primitives' normal operation
    (paper Sec 4): what origination does with a send ([fate]), CBCAST
    stamping and storing, the ABCAST origination window, vote collection
    and the commit, the engines' drains, the [ack] flag and stability
    (the cumulative [Deliver_ack]/[Stable] rule and the engines' GC
    watermarks), the retiring view's gap fill and final delivery, and
    the reset a view install makes.

    [step] does no I/O: it takes a state and an input, updates the
    state, and returns the effects to run, in order.  The runtime's interpreter runs
    them (frames, local delivery, the owners' [flush] bookkeeping,
    admission wake-ups, trace events) and keeps what a copy cannot
    decide alone: the CPU queue, send packing and the site's uid
    counter, which the core draws from through {!env}.  The view and
    the wedge stay in {!Flush.state}, which every call reads and none
    writes.

    The engines are imperative, so the state is one mutable record per
    copy, updated in place rather than returned: an untraced step
    allocates only its effects.

    ['o] is the owner of a send, the local process whose [flush] waits
    for it; the core only hands owners back in effects. *)

open Types
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

type 'o state

(** A send into the group, as origination gets it. *)
type 'o send = {
  owner : 'o option;  (** [None] for a relayed or system send *)
  mode : mode;
  body : Message.t;
  ack : bool;
      (** a CBCAST's own acknowledgement: clear on every CBCAST of a
          packed run but the last it originates *)
}

(** What the core needs from the site. *)
type env = {
  window : int;  (** ABCAST rounds one copy may have collecting votes at once *)
  fresh : unit -> uid;  (** draw the site's next uid *)
  traced : unit -> bool;
      (** whether a listener wants trace notes now: when it does not,
          the core builds none, so an untraced step allocates no note *)
}

(** Trace points, in the order they happen, returned only while
    [env.traced ()] holds. *)
type note =
  | Originated of mode * uid
  | Self_delivered of uid  (** the origin's own delivery, outside the engines *)
  | Delivered of uid
  | Stabilized of uid
  | Stable_advance of uid  (** a [Stable] arrived for this uid *)
  | Reclaimed  (** a stable uid's store copy and dedup record went *)
  | Voted of { voter : int; uid : uid; prio : int }
  | Committed of uid * int  (** final priority *)

type 'o effect =
  | Send of int * Proto.frame
  | Mcast of int list * Proto.frame  (** the same frame to each site *)
  | Deliver of Message.t  (** to the local members of the current view *)
  | Note of note
  | Init_done of 'o  (** the owner's accepted send left origination *)
  | Outstanding of 'o * uid  (** the owner's [flush] now waits for [uid] *)
  | Settled of 'o * uid  (** ... and no longer does *)
  | Gbcast_start of uid * Message.t  (** hand a GBCAST to the flush *)
  | Admit  (** backlog shrank: wake blocked originators *)
  | Rerun of 'o send list
      (** feed each as [Multicast], in order: the sends a wedge deferred *)

type 'o input =
  | Accept  (** a send entered the CPU queue; it counts against admission *)
  | Hand_off of 'o send  (** an accepted send left the CPU queue *)
  | Multicast of 'o send  (** a send that was never accepted *)
  | Frame of int * Proto.frame
      (** a data or stability frame from a site; the caller has checked
          that a data frame is for the current view and not wedged *)
  | Retire of Proto.frame
      (** a commit retires the view: fill its gaps, finalize and drop
          ABCASTs as it says, deliver everything left *)
  | Install of Proto.frame
      (** the commit's view is {!Flush.state}'s: fresh engines and
          store, then the commit's GBCASTs delivered *)
  | Unblock  (** the install is done: rerun the deferred sends *)
  | Discard  (** the copy goes: release every owner it holds *)

(** [create fl] is an empty state for the view [fl] holds. *)
val create : Flush.state -> 'o state

val step : env -> Flush.state -> 'o state -> 'o input -> 'o effect list

(** What origination does with a send now: a member a past view change
    removed as failed is dropped, and a wedged group defers the rest. *)
type fate = Drop | Defer | Originate

val fate : Flush.state -> 'o state -> Message.t -> fate

(** Admission: accepted sends plus queued ABCASTs reach two windows. *)
val overloaded : env -> 'o state -> bool

(** This site's wedge ack for the current view: what its engines hold. *)
val wedge_ack : Flush.state -> 'o state -> attempt:int -> Proto.frame

(** [bodies st uids] is the stored body of each uid this copy has, and
    the uids it has none for. *)
val bodies : 'o state -> uid list -> Proto.stored list * uid list

(** {1 Gauges}

    Accepted sends, ABCASTs waiting for a window slot, ABCAST rounds
    collecting votes, own multicasts some member has not acknowledged,
    stored bodies, and the engines' dedup records above a watermark. *)

val accepted : 'o state -> int
val queued : 'o state -> int
val inflight : 'o state -> int
val unstable : 'o state -> int
val stored : 'o state -> int
val dedup_residue : 'o state -> int
