(** The twenty-questions front end (paper Sec 5).

    Issues vertical and horizontal queries against the service,
    retrying with the paper's own fix when the responsible member fails
    mid-call ("instead of hanging, the caller will now obtain an error
    code from the multicast it used to issue the query, and will have
    to reissue its request"); horizontal callers iterate until they
    receive the expected number of responses.

    Queries are transmitted with CBCAST and updates with GBCAST — the
    configuration the paper chose because most requests are queries
    (Step 5). *)

module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Runtime = Vsync_core.Runtime

type t

(** [connect p] resolves the service (blocking). *)
val connect : Runtime.proc -> (t, string) result

val group : t -> Addr.group_id

(** [vertical t q] asks e.g. ["price>9000"]: one member answers.
    Retries up to [retries] (default 5) when the responsible member
    fails. *)
val vertical : ?retries:int -> t -> string -> (Database.answer, string) result

(** [horizontal t q] asks e.g. ["price>9000"] of {e all} active
    members (the ['*'] prefix is added for you); answers arrive in
    member-number order.  Iterates until NMEMBERS answers arrive. *)
val horizontal : ?retries:int -> t -> string -> (Database.answer list, string) result

(** [add_row t values] appends a row (1 GBCAST, Step 5; asynchronous).
    Honors runtime backpressure ({!Runtime.bcast_wait}): a bulk loader
    on a site that hosts a member parks while the multicasts the site
    has accepted for the group but not yet handed on reach two
    origination windows, GBCASTs counting like any other primitive;
    [on_backpressure] runs once per call that had to wait.  A row of the
    wrong arity is rejected by every member and never logged. *)
val add_row : ?on_backpressure:(Addr.group_id -> unit) -> t -> string list -> unit

(** [add_row_sync t values] appends a row and waits until every member
    has applied it (the members confirm with null replies). *)
val add_row_sync : t -> string list -> (unit, string) result

(** [remove_rows t ~column ~value] deletes matching rows (1 GBCAST;
    asynchronous, backpressured like {!add_row}). *)
val remove_rows :
  ?on_backpressure:(Addr.group_id -> unit) -> t -> column:string -> value:string -> unit
