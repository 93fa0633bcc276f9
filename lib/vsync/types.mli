(** Shared identifiers for the protocol layer. *)

(** Unique multicast identifier: originating site plus a per-site
    sequence number. *)
type uid = { usite : int; useq : int }

val uid_equal : uid -> uid -> bool
val uid_compare : uid -> uid -> int

(** ABCAST priority: (counter, site).  Lexicographic order; the site
    component breaks ties deterministically. *)
type prio = int * int

val prio_compare : prio -> prio -> int
val prio_max : prio -> prio -> prio

(** The three multicast primitives (paper Sec 3.1). *)
type mode =
  | Cbcast  (** causal order: potentially causally related multicasts
                are delivered everywhere in invocation order. *)
  | Abcast  (** total order: atomic and identically ordered everywhere. *)
  | Gbcast  (** global order: ordered w.r.t. {e everything}, including
                failures and membership changes. *)

val mode_to_string : mode -> string

(** How many replies a group RPC wants (paper Sec 3.2: "normally 0, 1,
    or ALL, although any limit could be specified"). *)
type want =
  | No_reply  (** asynchronous: the caller continues immediately. *)
  | Wait_n of int
  | Wait_all

module Uid_set : Set.S with type elt = uid
module Uid_map : Map.S with type key = uid
