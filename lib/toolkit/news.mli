(** The news service (paper Sec 3.9).

    A system-wide publish/subscribe facility: subscribers enroll for a
    {e subject} and receive a copy of every message posted to it "in
    the order they were posted".  Unlike net-news, the service is
    active: it informs processes immediately.

    Structure (matching the paper's Figure 1, where a news service
    process runs at each site): one {e agent} process per site joins
    the group ["sys.news"]; local processes subscribe with their agent
    (one local RPC) and the agent forwards postings that match.
    Postings ride an ABCAST among the agents, so every subscriber —
    anywhere — sees each subject's traffic in the same posting order. *)

module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Runtime = Vsync_core.Runtime

type agent

(** [start_agent rt] spawns the site's news agent and connects it to
    the system news group (creating the group if this is the first
    agent).  Call once per site, after the sites are up. *)
val start_agent : Runtime.t -> agent

(** [agent_ready a] — the agent has joined the news group. *)
val agent_ready : agent -> bool

(** [agent_failed a] — [Some reason] if the agent gave up joining the
    news group after its bounded retries (also reported as an
    [Error_event] on the typed event stream); [None] while connecting
    or once connected. *)
val agent_failed : agent -> string option

(** [subscribe a p ~subject f] enrolls process [p]: [f msg] runs for
    every posting on [subject], in global posting order (1 local
    RPC). *)
val subscribe : agent -> Runtime.proc -> subject:string -> (Message.t -> unit) -> unit

(** [unsubscribe a p ~subject] cancels the enrollment. *)
val unsubscribe : agent -> Runtime.proc -> subject:string -> unit

(** [post p ~subject m] publishes (1 ABCAST to the agents).  Any
    process on any site may post; the poster need not subscribe.
    Posting honors runtime backpressure ({!Runtime.bcast_wait}): when
    the poster's site holds a copy of the agents' group, the calling
    task blocks while the multicasts the site has accepted for that
    group but not yet handed on reach two origination windows;
    [on_backpressure] runs once per post that had to wait.  A post from
    a site with no copy is relayed and never held back. *)
val post :
  ?on_backpressure:(Addr.group_id -> unit) ->
  Runtime.proc -> subject:string -> Message.t -> unit
