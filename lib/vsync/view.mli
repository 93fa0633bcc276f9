(** Group membership views.

    A view is the membership of a process group at a logical instant:
    an identifier and the member list {e sorted by decreasing age}
    (paper Sec 3.2: "the membership list is sorted in order of
    decreasing age, providing a natural ranking on the members, and one
    that is the same at all members").  A member's index in the list is
    its {e rank}; because every member sees the same sequence of views
    and the same ordering of views relative to message deliveries,
    ranks support coordination "using any deterministic rule, without a
    special exchange of messages". *)

module Addr = Vsync_msg.Addr

type t = {
  group : Addr.group_id;
  view_id : int;           (** consecutive, starting at 1. *)
  members : Addr.proc list; (** oldest first. *)
  primary : bool;
      (** whether this view was installed by a primary component — one
          holding a quorum of its predecessor (see {!quorum_met}).
          Carried in the record so a chain of minority components can
          never manufacture primacy: every installed view descends from
          an unbroken line of primary views. *)
}

(** What changed between consecutive views, as reported to monitors. *)
type change =
  | Member_joined of Addr.proc
  | Member_left of Addr.proc
  | Member_failed of Addr.proc

val initial : Addr.group_id -> Addr.proc -> t

val n_members : t -> int
val is_member : t -> Addr.proc -> bool

(** [rank t p] is [p]'s index in age order.
    @raise Not_found when [p] is not a member. *)
val rank : t -> Addr.proc -> int

(** [member_at t rank] inverts {!rank}. *)
val member_at : t -> int -> Addr.proc

(** [oldest t] is the member with rank 0.
    @raise Invalid_argument on an empty view. *)
val oldest : t -> Addr.proc

(** [sites t] lists the distinct sites hosting members, ascending. *)
val sites : t -> int list

(** [members_at_site t s] lists members hosted at site [s], age order. *)
val members_at_site : t -> int -> Addr.proc list

(** [hosts v s]: some member of [v] lives at site [s]. *)
val hosts : t -> int -> bool

(** [apply ?id t changes] builds the successor view: failed/left
    members removed, joined members appended youngest-last (joins keep
    request order).  The view id becomes [max id (view_id + 1)] — the
    flush coordinator passes its attempt-derived id, so two divergent
    commits retiring the same view (a stale coordinator racing its
    successor) install views with {e distinct} ids, never the same id
    with different memberships.  Without [id] it increments by one.
    @raise Invalid_argument when a join duplicates a member. *)
val apply : ?id:int -> t -> change list -> t

(** [quorum_met ~prev ~survivors ~certain] decides whether a component
    retaining [survivors] of the agreed view [prev] is primary.
    [certain] lists members whose failure is certain (local crashes,
    voluntary leaves); they are removed from the denominator before
    the majority test.  The component passes with a strict majority of
    the remaining members, or exactly half of them when it retains the
    oldest — the age tie-break is unique, so two disjoint halves can
    never both pass. *)
val quorum_met : prev:t -> survivors:Addr.proc list -> certain:Addr.proc list -> bool

val pp_change : Format.formatter -> change -> unit
val pp : Format.formatter -> t -> unit
