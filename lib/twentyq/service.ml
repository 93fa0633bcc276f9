module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Runtime = Vsync_core.Runtime
module View = Vsync_core.View
module Types = Vsync_core.Types
module Toolkit = Vsync_toolkit
module Config_tool = Toolkit.Config_tool
module State_transfer = Toolkit.State_transfer
module Stable_store = Toolkit.Stable_store

let group_name = "twenty"
let entry = Entry.user 8

let f_op = "$tq.op"
let f_query = "$tq.q"
let f_answer = "$tq.ans"
let f_member = "$tq.member"
let f_nmembers = "$tq.nm"
let f_values = "$tq.values"
let f_column = "$tq.col"
let f_value = "$tq.val"

let log_name = "twentyq.updates"
let ckpt_name = "twentyq.db"

type t = {
  me : Runtime.proc;
  mutable group : Addr.group_id;
  mutable database : Database.t;
  config : Config_tool.t option ref; (* set after attach *)
  store : Stable_store.t option;
}

let gid t = t.group
let db t = t.database

let my_number t = Runtime.pg_rank t.me t.group

let config t =
  match !(t.config) with Some c -> c | None -> invalid_arg "Twentyq: config not attached"

let nmembers t =
  match Config_tool.read (config t) ~key:"nmembers" with
  | Some (Message.Int n) -> n
  | _ -> 1

let secret t =
  match Config_tool.read (config t) ~key:"secret" with
  | Some (Message.Str s) when not (String.equal s "") -> Some s
  | _ -> None

let set_nmembers t n = Config_tool.update (config t) ~key:"nmembers" (Message.Int n)
let set_secret t s = Config_tool.update (config t) ~key:"secret" (Message.Str s)

let site_of t = (Runtime.proc_addr t.me).Addr.site

let log_update t m =
  match t.store with
  | Some store ->
    Stable_store.append store ~site:(site_of t) ~log:log_name m;
    if Stable_store.log_length store ~site:(site_of t) ~log:log_name >= 32 then begin
      Stable_store.write_checkpoint store ~site:(site_of t) ~name:ckpt_name
        (Database.encode t.database);
      Stable_store.truncate_log store ~site:(site_of t) ~log:log_name
    end
  | None -> ()

(* Every member holds the same schema when an update is delivered, so a
   malformed one (a row of the wrong arity, an unknown column) is
   rejected at every member alike — and, never applied, it is never
   logged either. *)
let apply_update t m =
  let applied =
    match Message.get_str m f_op with
    | Some "add_row" -> (
      match Message.get_str m f_values with
      | Some packed -> (
        match Database.add_row t.database (String.split_on_char '\x1f' packed) with
        | () -> true
        | exception Invalid_argument _ -> false)
      | None -> false)
    | Some "remove_rows" -> (
      match Message.get_str m f_column, Message.get_str m f_value with
      | Some column, Some value -> (
        match Database.remove_rows t.database ~column ~value with
        | _ -> true
        | exception Not_found -> false)
      | _ -> false)
    | Some _ | None -> false
  in
  if applied then log_update t m

(* Answering rule of Step 2.  A member that is not responsible (or is a
   standby, Step 4) sends a null reply so the caller never hangs. *)
let answer_query t m =
  let reply_with answer =
    let r = Message.create () in
    Message.set_str r f_answer (Database.answer_to_string answer);
    (match my_number t with Some n -> Message.set_int r f_member n | None -> ());
    Message.set_int r f_nmembers (nmembers t);
    Runtime.reply t.me ~request:m r
  in
  match Message.get_str m f_query, my_number t with
  | Some qtext, Some number -> (
    let nm = nmembers t in
    let horizontal = String.length qtext > 0 && qtext.[0] = '*' in
    let body = if horizontal then String.sub qtext 1 (String.length qtext - 1) else qtext in
    if number >= nm then Runtime.null_reply t.me ~request:m (* hot standby *)
    else
      match Database.parse_query body with
      | None -> Runtime.null_reply t.me ~request:m
      | Some q ->
        if horizontal then
          let answer =
            Database.eval t.database ?restrict_object:(secret t) q
              ~row_filter:(fun r -> r mod nm = number)
          in
          reply_with answer
        else
          let responsible =
            match Database.column_index t.database q.Database.column with
            | ci -> ci mod nm
            | exception Not_found -> 0
          in
          if responsible = number then
            reply_with
              (Database.eval t.database ?restrict_object:(secret t) q ~row_filter:(fun _ -> true))
          else Runtime.null_reply t.me ~request:m)
  | _ -> Runtime.null_reply t.me ~request:m

let handle t m =
  match Message.get_str m f_op with
  | Some "query" -> answer_query t m
  | Some ("add_row" | "remove_rows") ->
    apply_update t m;
    if Message.session m <> None then Runtime.null_reply t.me ~request:m
  | Some _ | None -> if Message.session m <> None then Runtime.null_reply t.me ~request:m

let segments t =
  [
    ( "db",
      (fun () -> Database.encode t.database),
      fun chunks -> if chunks <> [] then t.database <- Database.decode chunks );
  ]

let wire t =
  Runtime.bind t.me entry (fun m -> handle t m);
  let cfg = Config_tool.attach t.me ~gid:t.group in
  t.config := Some cfg;
  State_transfer.attach t.me ~gid:t.group
    ~segments:(segments t @ [ ("config", (fun () -> Config_tool.encode_state cfg), Config_tool.decode_state cfg) ])

let create me ~db ~nmembers ?store () =
  let t =
    { me; group = Addr.group_of_int 0; database = db; config = ref None; store }
  in
  t.group <- Runtime.pg_create me group_name;
  wire t;
  Config_tool.update (config t) ~key:"nmembers" (Message.Int nmembers);
  Config_tool.update (config t) ~key:"secret" (Message.Str "");
  (match store with
  | Some s ->
    Stable_store.write_checkpoint s ~site:(site_of t) ~name:ckpt_name (Database.encode db)
  | None -> ());
  t

let join me ?store () =
  match Runtime.pg_lookup me group_name with
  | None -> Error "twenty-questions service not found"
  | Some group ->
    let t =
      { me; group; database = Database.create ~columns:[ "object" ]; config = ref None; store }
    in
    (* The entry and config must exist before the transferred state and
       buffered messages land. *)
    Runtime.bind t.me entry (fun m -> handle t m);
    let cfg = Config_tool.attach t.me ~gid:t.group in
    t.config := Some cfg;
    let segs =
      segments t
      @ [ ("config", (fun () -> Config_tool.encode_state cfg), Config_tool.decode_state cfg) ]
    in
    (match
       State_transfer.join_and_xfer me ~gid:group ~credentials:(Message.create ()) ~segments:segs
     with
    | Ok () ->
      State_transfer.attach t.me ~gid:t.group ~segments:segs;
      Ok t
    | Error e -> Error e)

(* --- Step 3: automatic member restart --- *)

let member_program = "twentyq.member"

let register_member_program () =
  Toolkit.Remote_exec.register_program member_program (fun fresh _arg ->
      match join fresh () with
      | Ok _ -> ()
      | Error _ -> () (* the service vanished while we were starting *))

let enable_auto_restart t =
  Runtime.pg_monitor t.me t.group (fun view _changes ->
      (* The oldest member tops the service back up (Step 3).  If it
         dies mid-restart, the next view change makes the new oldest
         take over — and any resulting extra members simply become hot
         standbys (Step 4), exactly the paper's resolution of the race. *)
      if Runtime.pg_rank t.me t.group = Some 0 then begin
        let deficit = nmembers t - View.n_members view in
        if deficit > 0 then begin
          let sites = View.sites view in
          List.iteri
            (fun k () ->
              let target = List.nth sites (k mod List.length sites) in
              ignore
                (Toolkit.Remote_exec.spawn_at t.me ~site:target ~program:member_program
                   (Message.create ())))
            (List.init deficit (fun _ -> ()))
        end
      end)

let restart_from_log me ~store =
  let site = (Runtime.proc_addr me).Addr.site in
  match Stable_store.read_checkpoint store ~site ~name:ckpt_name with
  | None -> Error "no checkpoint on stable storage"
  | Some chunks ->
    let t =
      { me; group = Addr.group_of_int 0; database = Database.decode chunks; config = ref None; store = Some store }
    in
    t.group <- Runtime.pg_create me group_name;
    wire t;
    (* Replay updates logged after the checkpoint. *)
    List.iter (fun m -> apply_update { t with store = None } m)
      (Stable_store.read_log store ~site ~log:log_name);
    Config_tool.update (config t) ~key:"nmembers" (Message.Int 1);
    Config_tool.update (config t) ~key:"secret" (Message.Str "");
    Ok t
