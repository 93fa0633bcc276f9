(* Reply collection: one session per reply-wanting multicast, closed
   once enough responders replied, sent a null reply or are known to
   have failed.  A relayed group's responders are unknown until its
   relay names them, so until then the relay's site stays in [relays]. *)

open Types
open State

let close_session t sess outcome =
  if Hashtbl.mem t.sessions sess.sess_id then begin
    Hashtbl.remove t.sessions sess.sess_id;
    List.iter (fun site -> Endpoint.unmonitor t.ep ~site) sess.mon_sites;
    Ivar.fill sess.done_ivar outcome
  end

(* A call fails outright when no responder replied or sent a null reply
   and none is left to hear from: each failed, and every relay named
   its members. *)
let check_session t sess =
  let accounted (r : Addr.proc) =
    List.exists (fun (p, _) -> Addr.equal_proc p r) sess.replies
    || List.exists (Addr.equal_proc r) sess.nulls
    || List.exists (Addr.equal_proc r) sess.sfailed
  in
  let complete = sess.relays = [] && List.for_all accounted sess.responders in
  let n_replies = List.length sess.replies in
  let finishable =
    match sess.swant with
    | No_reply -> true
    | Wait_n n -> n_replies >= n || complete
    | Wait_all -> complete
  in
  if finishable then
    if n_replies = 0 && sess.nulls = [] && complete then close_session t sess All_failed
    else close_session t sess (Replies (List.rev sess.replies))

(* Watch the [sites] of responders and relays not watched yet: a site
   crash means its responders will never reply. *)
let watch t sess sites =
  let fresh =
    List.sort_uniq compare
      (List.filter (fun s -> s <> t.my_site && not (List.mem s sess.mon_sites)) sites)
  in
  List.iter (fun site -> Endpoint.monitor t.ep ~site) fresh;
  sess.mon_sites <- fresh @ sess.mon_sites

let site_of (r : Addr.proc) = r.Addr.site

let open_session t ~want ~responders ~relays =
  let sess =
    {
      sess_id = fresh_session t;
      swant = want;
      replies = [];
      nulls = [];
      sfailed = [];
      responders;
      relays;
      done_ivar = Ivar.create ();
      mon_sites = [];
    }
  in
  Hashtbl.replace t.sessions sess.sess_id sess;
  watch t sess (List.map site_of responders @ relays);
  sess

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

(* The relay at site [relay] named its group's members (none, if its
   copy is gone): they join the responders. *)
let note_relay_answer t sess ~relay members =
  if List.mem relay sess.relays then begin
    sess.relays <- remove_one relay sess.relays;
    sess.responders <- members @ sess.responders;
    watch t sess (List.map site_of members);
    check_session t sess
  end

let note_reply t sess ~responder ~body ~null =
  let already p = Addr.equal_proc p responder in
  if
    (not (List.exists (fun (p, _) -> already p) sess.replies))
    && not (List.exists already sess.nulls)
  then begin
    if null then sess.nulls <- responder :: sess.nulls
    else sess.replies <- (responder, body) :: sess.replies;
    check_session t sess
  end

let note_failed_responder t ~session ~responder =
  match Hashtbl.find_opt t.sessions session with
  | None -> ()
  | Some sess ->
    if not (List.exists (Addr.equal_proc responder) sess.sfailed) then begin
      sess.sfailed <- responder :: sess.sfailed;
      check_session t sess
    end

(* A view change removed [p]: open collections waiting on it will never
   hear from it.  Every open session notes it, responder or not, since
   a relay may still name it; [check_session] counts only responders. *)
let note_removed_member t p =
  let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
  List.iter (fun sess -> note_failed_responder t ~session:sess.sess_id ~responder:p) open_sessions

let session_site_down t s =
  let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
  List.iter
    (fun sess ->
      List.iter
        (fun (r : Addr.proc) ->
          if r.Addr.site = s then note_failed_responder t ~session:sess.sess_id ~responder:r)
        sess.responders;
      (* A relay died before naming its group's members: the send may
         or may not have happened; report failure so the caller can
         retry (paper Sec 5 step 2 does exactly this). *)
      if List.mem s sess.relays then close_session t sess All_failed)
    open_sessions
