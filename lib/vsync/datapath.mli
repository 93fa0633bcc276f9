(** The data path as a step function.

    One group copy's side of the three primitives' normal operation
    (paper Sec 4): what origination does with a send ([fate]), CBCAST
    stamping and storing, the ABCAST origination window, vote collection
    and the commit, the engines' drains, the [ack] flag and stability
    (the cumulative [Deliver_ack]/[Stable] rule and the engines' GC
    watermarks), the retiring view's gap fill and final delivery, and
    the reset a view install makes.

    Acknowledgement is cumulative for both engines: only the last
    CBCAST of a packed run and the last round of an ABCAST burst (the
    rounds one dispatch launches) carry the [ack] flag, and a
    [Deliver_ack] or [Stable] for a flagged uid settles it and the
    consecutive unflagged uids below it from its origin.

    [step], [frame] and [hand_off] do no I/O: each takes a state and an
    input, updates the state, and returns the effects to run, in
    order.  {!Copy} composes them with the view change: it answers
    [Gbcast_start] itself and passes every other effect, unchanged, to the runtime's
    interpreter, which runs them (frames, local delivery, the owners'
    [flush] bookkeeping, admission wake-ups, trace events).  The
    interpreter keeps what a copy cannot decide alone: the CPU queue,
    send packing and the site's uid counter, which the core draws from
    through {!env}.  The view and the wedge stay in {!Flush.state},
    which every call reads and none writes.

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
          packed run but the last it originates.  An ABCAST's flag is
          set when its round is dispatched, so this one is unused. *)
}

(** What the core needs from the site. *)
type env = {
  window : int;  (** ABCAST rounds one copy may have collecting votes at once *)
  fresh : unit -> uid;  (** draw the site's next uid *)
  wants : Vsync_obs.Event.cls -> bool;
      (** whether a listener wants trace notes of a class now: the core
          builds [Proto] notes only while it does, so an untraced step
          allocates no note *)
}

(** ['x] is the effect type of the copy around the core, which rides
    in [Other]. *)
type ('o, 'x) effect =
  | Send of int * Proto.frame
  | Mcast of int list * Proto.frame  (** the same frame to each site *)
  | Deliver of Message.t * Addr.proc list
      (** to those of these members (the view's, when it was made) this
          site hosts *)
  | Note of Vsync_obs.Event.t
      (** a trace point, made only while [env.wants Proto] holds; the
          origin's own delivery of a CBCAST is one when its site hosts
          a member *)
  | Init_done of 'o  (** the owner's accepted send left origination *)
  | Outstanding of 'o * uid  (** the owner's [flush] now waits for [uid] *)
  | Settled of 'o * uid  (** ... and no longer does *)
  | Gbcast_start of uid * Message.t  (** hand a GBCAST to the flush *)
  | Admit  (** backlog shrank: wake blocked originators *)
  | Other of 'x  (** the data path makes none *)

type 'o input =
  | Accept  (** a send entered the CPU queue; it counts against admission *)
  | Multicast of 'o send  (** a send that was never accepted *)
  | Retire of Proto.frame
      (** a commit retires the view: fill its gaps, finalize and drop
          ABCASTs as it says, deliver everything left *)
  | Install of Proto.frame
      (** the commit's view is {!Flush.state}'s: fresh engines and
          store, then the commit's GBCASTs delivered *)
  | Unblock  (** the install is done: originate the sends the wedge deferred, in order *)
  | Discard  (** the copy goes: release every owner it holds *)

(** [create fl] is an empty state for the view [fl] holds. *)
val create : Flush.state -> 'o state

val step : env -> Flush.state -> 'o state -> 'o input -> ('o, 'x) effect list

(** The two inputs every operation makes are functions, so the hot
    path builds no input for them.  [frame env fl st ~src f] takes a
    data or stability frame from a site; the caller has checked that a
    data frame is for the current view and not wedged. *)
val frame : env -> Flush.state -> 'o state -> src:int -> Proto.frame -> ('o, 'x) effect list

(** [hand_off env fl st s]: an accepted send left the CPU queue. *)
val hand_off : env -> Flush.state -> 'o state -> 'o send -> ('o, 'x) effect list

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
