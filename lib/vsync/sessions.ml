(* Reply collection: one session per reply-wanting multicast, closed
   once enough responders replied, sent a null reply or are known to
   have failed. *)

open Types
open State

let close_session t sess outcome =
  if Hashtbl.mem t.sessions sess.sess_id then begin
    Hashtbl.remove t.sessions sess.sess_id;
    List.iter (fun site -> Endpoint.unmonitor (endpoint t) ~site) sess.mon_sites;
    Ivar.fill sess.done_ivar outcome
  end

let check_session t sess =
  match sess.responders with
  | None ->
    (* Without the authoritative responder list we can still satisfy a
       fixed-count request. *)
    (match sess.swant with
    | Wait_n n when List.length sess.replies >= n ->
      close_session t sess (Replies (List.rev sess.replies))
    | Wait_n _ | Wait_all | No_reply -> ())
  | Some responders ->
    let accounted (r : Addr.proc) =
      List.exists (fun (p, _) -> Addr.equal_proc p r) sess.replies
      || List.exists (Addr.equal_proc r) sess.nulls
      || List.exists (Addr.equal_proc r) sess.sfailed
    in
    let outstanding = List.filter (fun r -> not (accounted r)) responders in
    let n_replies = List.length sess.replies in
    let finishable =
      match sess.swant with
      | No_reply -> true
      | Wait_n n -> n_replies >= n || outstanding = []
      | Wait_all -> outstanding = []
    in
    if finishable then
      if n_replies = 0 && sess.nulls = [] && responders <> [] && List.length sess.sfailed = List.length responders
      then close_session t sess All_failed
      else close_session t sess (Replies (List.rev sess.replies))

let open_session t ~want ~responders ~relay_site =
  let sess =
    {
      sess_id = fresh_session t;
      swant = want;
      replies = [];
      nulls = [];
      sfailed = [];
      responders;
      relay_site;
      done_ivar = Ivar.create ();
      mon_sites = [];
    }
  in
  Hashtbl.replace t.sessions sess.sess_id sess;
  (* Watch the sites hosting responders (and the relay): a site crash
     means those responders will never reply. *)
  let watch =
    (match responders with
    | Some rs -> List.map (fun (r : Addr.proc) -> r.Addr.site) rs
    | None -> [])
    @ (match relay_site with Some s -> [ s ] | None -> [])
  in
  let watch = List.sort_uniq compare (List.filter (fun s -> s <> t.my_site) watch) in
  List.iter (fun site -> Endpoint.monitor (endpoint t) ~site) watch;
  sess.mon_sites <- watch;
  sess

let note_responders t sess responders =
  if sess.responders = None then begin
    sess.responders <- Some responders;
    let monitored = Int_set.of_list sess.mon_sites in
    let extra =
      List.sort_uniq compare
        (List.filter_map
           (fun (r : Addr.proc) ->
             if r.Addr.site <> t.my_site && not (Int_set.mem r.Addr.site monitored) then
               Some r.Addr.site
             else None)
           responders)
    in
    List.iter (fun site -> Endpoint.monitor (endpoint t) ~site) extra;
    sess.mon_sites <- extra @ sess.mon_sites;
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
   hear from it. *)
let note_removed_member t p =
  let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
  List.iter (fun sess -> note_failed_responder t ~session:sess.sess_id ~responder:p) open_sessions

let session_site_down t s =
  let open_sessions = Hashtbl.fold (fun _ sess acc -> sess :: acc) t.sessions [] in
  List.iter
    (fun sess ->
      (match sess.responders with
      | Some rs ->
        List.iter
          (fun (r : Addr.proc) ->
            if r.Addr.site = s then note_failed_responder t ~session:sess.sess_id ~responder:r)
          rs
      | None -> ());
      (* Relay died before telling us who the responders are: the send
         may or may not have happened; report failure so the caller can
         retry (paper Sec 5 step 2 does exactly this). *)
      if sess.responders = None && sess.relay_site = Some s then close_session t sess All_failed)
    open_sessions
