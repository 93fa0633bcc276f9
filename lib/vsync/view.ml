module Addr = Vsync_msg.Addr

type t = {
  group : Addr.group_id;
  view_id : int;
  members : Addr.proc list;
  primary : bool;
}

type change =
  | Member_joined of Addr.proc
  | Member_left of Addr.proc
  | Member_failed of Addr.proc

let initial group creator = { group; view_id = 1; members = [ creator ]; primary = true }

let n_members t = List.length t.members

let is_member t p = List.exists (Addr.equal_proc p) t.members

let rank t p =
  let rec loop i = function
    | [] -> raise Not_found
    | m :: _ when Addr.equal_proc m p -> i
    | _ :: rest -> loop (i + 1) rest
  in
  loop 0 t.members

let member_at t r = List.nth t.members r

let oldest t =
  match t.members with
  | [] -> invalid_arg "View.oldest: empty view"
  | m :: _ -> m

(* Members usually join in site order, and the data path asks for the
   sites on every origination: skip the sort when it would change
   nothing. *)
let sites t =
  let l = List.map (fun (p : Addr.proc) -> p.Addr.site) t.members in
  let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | [ _ ] | [] -> true in
  if ascending l then l else List.sort_uniq compare l

let members_at_site t s = List.filter (fun (p : Addr.proc) -> p.Addr.site = s) t.members

let rec at_site s = function [] -> false | (p : Addr.proc) :: rest -> p.Addr.site = s || at_site s rest
let hosts t s = at_site s t.members

let apply ?id t changes =
  let removed =
    List.filter_map
      (function Member_left p | Member_failed p -> Some p | Member_joined _ -> None)
      changes
  in
  let joined = List.filter_map (function Member_joined p -> Some p | _ -> None) changes in
  let survivors =
    List.filter (fun m -> not (List.exists (Addr.equal_proc m) removed)) t.members
  in
  List.iter
    (fun j ->
      if List.exists (Addr.equal_proc j) survivors then
        invalid_arg "View.apply: joining member already present")
    joined;
  let view_id =
    match id with Some i -> max i (t.view_id + 1) | None -> t.view_id + 1
  in
  { t with view_id; members = survivors @ joined }

(* The primary-partition rule.  A component of the previous agreed
   view may install a successor (and keep delivering) only when it
   retains a quorum of that view.  Members whose failure is CERTAIN —
   local crashes reported by the victim's own site, and voluntary
   leaves — shrink the denominator: they can never be on the other
   side of a partition, so counting them against the survivors would
   wedge groups that merely shrank.  Only suspicion-based evictions
   (unreachable sites) count against quorum.  The tie-break for an
   exact half keeps the side holding the oldest not-certainly-dead
   member, which is unique, so two disjoint halves can never both
   pass. *)
let quorum_met ~prev ~survivors ~certain =
  let certainly_dead p = List.exists (Addr.equal_proc p) certain in
  let base = List.filter (fun m -> not (certainly_dead m)) prev.members in
  let surviving = List.filter (fun m -> List.exists (Addr.equal_proc m) survivors) base in
  let n = List.length base and k = List.length surviving in
  if n = 0 then true
  else if 2 * k > n then true
  else if 2 * k = n then
    match base with
    | [] -> true
    | oldest :: _ -> List.exists (Addr.equal_proc oldest) surviving
  else false

let pp_change ppf = function
  | Member_joined p -> Format.fprintf ppf "+%a" Addr.pp_proc p
  | Member_left p -> Format.fprintf ppf "-%a" Addr.pp_proc p
  | Member_failed p -> Format.fprintf ppf "!%a" Addr.pp_proc p

let pp ppf t =
  Format.fprintf ppf "view(g%d,#%d,[%a])" (Addr.group_to_int t.group) t.view_id
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Addr.pp_proc)
    t.members
