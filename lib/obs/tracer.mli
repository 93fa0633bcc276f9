(** Event tracer: a bounded ring of recent {!Event.record}s plus
    optional push sinks.

    The tracer is allocation-free when disabled {e provided callers
    guard}: construct the event only after [wants t cls] (or at least
    [enabled t]) says someone is listening —

    {[
      if Tracer.wants tr Event.Proto then
        Tracer.emit tr (Event.Deliver { site; group; usite; useq })
    ]}

    [emit] re-checks the gate, so an unguarded call is safe, merely not
    free.

    Consumers that must see {e every} event (the oracle, JSONL export)
    attach a sink with [add_sink]: sinks run synchronously at emission
    and are immune to ring eviction.  The ring is for after-the-fact
    inspection (tests, [vsim --trace] dumps, timelines of recent
    traffic).

    The tracer deliberately knows nothing about the engine: it takes a
    [now] closure, so it can sit below [lib/sim] in the library
    stack. *)

type sink = Event.record -> unit
type t

(** [create ~now] makes a disabled tracer reading timestamps from
    [now].  Its ring keeps the last 200_000 records. *)
val create : now:(unit -> int) -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** Class bitmask (or of {!Event.cls_bit}).  The default mask admits
    everything except [Engine] events, which are voluminous. *)
val mask : t -> int

val set_mask : t -> int -> unit

(** [set_classes t cs] replaces the mask with exactly the classes
    [cs]. *)
val set_classes : t -> Event.cls list -> unit

(** [wants t cls] — is the tracer enabled and listening to [cls]?  The
    emission guard: check before allocating an event. *)
val wants : t -> Event.cls -> bool

(** [emit t ev] timestamps [ev], pushes it on the ring and feeds every
    sink.  No-op (and allocation-free) when [wants] is false for the
    event's class. *)
val emit : t -> Event.t -> unit

(** [add_sink t s] registers [s] to run on every subsequent emission,
    after existing sinks. *)
val add_sink : t -> sink -> unit

(** Retained records, oldest first. *)
val records : t -> Event.record list

val iter : t -> (Event.record -> unit) -> unit

(** Total events emitted (including any since evicted from the ring). *)
val emitted : t -> int

(** Records lost to ring eviction. *)
val evicted : t -> int

val clear : t -> unit
