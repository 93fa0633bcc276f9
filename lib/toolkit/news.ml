module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Runtime = Vsync_core.Runtime
module Types = Vsync_core.Types

let group_name = "sys.news"
let f_subject = "$news.subject"

type agent = {
  proc : Runtime.proc;
  mutable subs : (string * Runtime.proc * (Message.t -> unit)) list;
  mutable ready : bool;
  mutable failed : string option;
}

let deliver_local a m =
  match Message.get_str m f_subject with
  | None -> ()
  | Some subject ->
    List.iter
      (fun (s, p, f) ->
        if String.equal s subject && Runtime.proc_alive p then
          Runtime.spawn_task p (fun () -> f (Message.copy m)))
      a.subs

(* A refused join is usually transient (the group was mid view-change,
   or the creator's commit had not landed here yet): retry a bounded
   number of times, then record the failure on the agent and report it
   on the typed event stream instead of killing the site's task with an
   exception. *)
let join_attempts = 5

let report_failure rt a detail =
  a.failed <- Some detail;
  let tr = Vsync_sim.Trace.obs (Runtime.trace rt) in
  if Vsync_obs.Tracer.wants tr Vsync_obs.Event.Note then
    Vsync_obs.Tracer.emit tr
      (Vsync_obs.Event.Error_event { site = Runtime.site rt; what = "news.join"; detail })

let start_agent rt =
  let proc = Runtime.spawn_proc rt ~name:(Printf.sprintf "news.agent%d" (Runtime.site rt)) () in
  let a = { proc; subs = []; ready = false; failed = None } in
  Runtime.bind proc Entry.generic_news (fun m -> deliver_local a m);
  Runtime.spawn_task proc (fun () ->
      (* Site 0's agent creates the group; the others keep looking it
         up until it exists (agents may start concurrently). *)
      let rec connect attempt =
        match Runtime.pg_lookup proc group_name with
        | Some gid -> (
          match Runtime.pg_join proc gid ~credentials:(Message.create ()) with
          | Ok () -> a.ready <- true
          | Error e ->
            if attempt < join_attempts then begin
              Runtime.sleep proc 200_000;
              connect (attempt + 1)
            end
            else
              report_failure rt a
                (Printf.sprintf "could not join %s after %d attempts: %s" group_name
                   join_attempts e))
        | None ->
          if Runtime.site rt = 0 then begin
            ignore (Runtime.pg_create proc group_name);
            a.ready <- true
          end
          else begin
            Runtime.sleep proc 200_000;
            connect attempt
          end
      in
      connect 1);
  a

let agent_ready a = a.ready
let agent_failed a = a.failed

let subscribe a p ~subject f =
  Vsync_obs.Metrics.(incr (counter (Runtime.metrics (Runtime.runtime_of p)) "prim.local_rpc"));
  a.subs <- (subject, p, f) :: a.subs

let unsubscribe a p ~subject =
  a.subs <-
    List.filter
      (fun (s, q, _) ->
        not (String.equal s subject && Runtime.proc_uid q = Runtime.proc_uid p))
      a.subs

let post ?on_backpressure p ~subject m =
  match Runtime.pg_lookup p group_name with
  | None -> invalid_arg "News.post: no news service running"
  | Some gid ->
    let m = Message.copy m in
    Message.set_str m f_subject subject;
    (* Honor runtime backpressure: a flooding publisher parks here until
       the posting group's pipeline has room, instead of growing its
       queues without bound. *)
    ignore
      (Runtime.bcast_wait ?on_backpressure p Types.Abcast ~dest:(Addr.Group gid)
         ~entry:Entry.generic_news m ~want:Types.No_reply)
