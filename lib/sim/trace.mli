(** A world's event trace: the typed tracer ({!Vsync_obs.Tracer})
    stamped by the world's clock.  Every layer emits on [obs t];
    tracing is off by default and costs one branch when disabled. *)

type t

val create : Engine.t -> t

(** [create_clock ~now] builds a trace stamped by an arbitrary clock —
    how wall-clock worlds trace (timestamps are elapsed real µs). *)
val create_clock : now:(unit -> Engine.time) -> t

(** The underlying typed tracer. *)
val obs : t -> Vsync_obs.Tracer.t
