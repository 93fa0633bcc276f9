(** Unified metrics registry.

    One namespace for two kinds of instruments, so consumers (oracle
    hygiene checks, the bench harness, the ledger) sample state by name
    instead of knowing which module owns which accessor:

    - {e counters}: monotonically increasing ints, owned by the
      registry ([counter] get-or-creates);
    - {e gauges}: callback closures sampling live state at read time
      (in-flight windows, pending-table sizes).

    Registries are cheap; the runtime makes one per site. *)

type t
type counter
type value = Counter_v of int | Gauge_v of int

val create : unit -> t

(** [counter t name] returns the counter registered under [name],
    creating it on first use.
    @raise Invalid_argument if [name] names a gauge. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [gauge t name f] registers [f] to be sampled on every read.
    @raise Invalid_argument on a duplicate name. *)
val gauge : t -> string -> (unit -> int) -> unit

(** [read t name] samples one metric. *)
val read : t -> string -> value option

(** [read_int t name] is the metric's value, whatever its kind. *)
val read_int : t -> string -> int option

(** All metrics in registration order, sampled now. *)
val snapshot : t -> (string * value) list

val names : t -> string list

(** [merge_snapshots snaps] folds several {!snapshot}s into one:
    counters and gauges sum.  Names keep first-appearance order.
    [World.metrics] merges the per-site registries of a world with it.
    @raise Invalid_argument if a name appears with different kinds. *)
val merge_snapshots : (string * value) list list -> (string * value) list
