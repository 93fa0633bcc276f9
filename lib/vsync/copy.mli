(** One group copy as a pure step function.

    A member of a group is one virtually synchronous state machine
    (paper Sec 3.2): it delivers in a view, wedges, flushes and installs
    the next view atomically.  A copy is that machine at one site.  It
    holds the two cores that make its decisions, {!Flush} (the view
    change) and {!Datapath} (the data path), and the frames that
    arrived for a view it has not installed, and it answers the cores'
    questions to each other itself:
    - the flush's [Ack_wedge] with {!Datapath.wedge_ack}, its
      [Fetch_local], like a peer's [Fetch], with {!Datapath.bodies}, and
      its [Check_alive] with [env.alive];
    - a retire is [Datapath.Retire], then [Flush.Retired];
    - an install is [Datapath.Install], the view's I/O, the rerun of
      the sends the wedge deferred, the replay of held frames, and then
      [Flush.Installed], or [Discard] when the new view has no member
      at this site;
    - a GBCAST the data path originates goes to the flush.

    A data frame counts only in the view it was sent in: one for the
    current view goes to the data path unless the copy is wedged or the
    sender hosts no member; one for a newer view is held until that
    view installs; a stale one from a site outside the view is answered
    with the current view id.

    [step] does no I/O and raises nothing.  It returns the effects in
    the order they must run, each answer where its question stood.  The
    runtime's interpreter runs them after the whole step, so every
    effect carries what it needs from the copy.  The data path's
    effects pass through as they are; the view change's trace points
    become [Datapath.Note] events, built only while
    [env.data.wants] their class, and its other effects ride in
    [Datapath.Other] as {!io}. *)

module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message

(** ['o] owns a send, as in {!Datapath}. *)
type 'o t

(** What a copy needs from its site. *)
type env = {
  data : Datapath.env;
  alive : Addr.proc -> bool;
      (** whether this local process lives: the flush asks before it
          acts on a suspicion of one *)
}

(** The view change's I/O. *)
type io =
  | Arm of int * Flush.timer  (** feed [Timer] after this many µs, if the copy survives *)
  | Refuse_join of Addr.proc * string
  | Validate of (Addr.proc * Message.t) list  (** answer with [Refused] *)
  | Commit of int list * Proto.frame  (** broadcast a commit this site built *)
  | Installing of { gname : string; view : View.t }
      (** a commit's view is the copy's: the directory and the install
          trace point follow it *)
  | Installed of { retiring : View.t option; view : View.t; events : View.change list }
      (** after the commit's GBCASTs: open calls discount removed
          members, monitors and the joins and leaves it settles hear of
          it, and failure-detector subscriptions follow the sites *)
  | Teardown
      (** the copy is evicted: fail local joins and stop offering this
          site as a contact; [Discard] follows *)
  | Discard of { sites : int list; held : (int * Proto.frame) list }
      (** the copy is gone: release what waits on it, stop monitoring
          [sites], and pass [held] (newest first) to a local join in
          flight *)

type 'o effect = ('o, io) Datapath.effect

type 'o input =
  | Accept  (** a send entered the CPU queue *)
  | Hand_off of 'o Datapath.send  (** an accepted send left the CPU queue *)
  | Multicast of 'o Datapath.send  (** a send that was never accepted *)
  | Frame of int * Proto.frame  (** any frame for this group, from a site *)
  | Event of Flush.event  (** a local membership event, for the coordinator *)
  | Site_down of { site : int; certain : bool }
  | Site_recovered of int
  | Timer of Flush.timer
  | Refused of Addr.proc list

(** [create ~me ~epoch ~gname view] is a fresh copy holding [view]. *)
val create : me:int -> epoch:int -> gname:string -> View.t -> 'o t

(** [adopt env ~me ~epoch ~held commit] is the copy a commit creates at
    a site holding none, when the new view has a member there, and the
    effects of its install; [held] are frames that arrived first,
    newest first. *)
val adopt :
  env -> me:int -> epoch:int -> held:(int * Proto.frame) list -> Proto.frame -> ('o t * 'o effect list) option

val step : env -> 'o t -> 'o input -> 'o effect list

(** The installed view. *)
val view : 'o t -> View.t

(** {!Datapath.fate} of a send now. *)
val fate : 'o t -> Message.t -> Datapath.fate

(** {!Datapath.overloaded}. *)
val overloaded : env -> 'o t -> bool

(** The data path's state, for its gauges. *)
val datapath : 'o t -> 'o Datapath.state

(** Frames held for a view not installed yet. *)
val held : 'o t -> int
