type uid = { usite : int; useq : int }

let uid_equal a b = a.usite = b.usite && a.useq = b.useq

let uid_compare a b =
  match compare a.usite b.usite with 0 -> compare a.useq b.useq | c -> c

type prio = int * int

let prio_compare (c1, s1) (c2, s2) =
  match compare c1 c2 with 0 -> compare s1 s2 | c -> c

let prio_max a b = if prio_compare a b >= 0 then a else b

type mode = Cbcast | Abcast | Gbcast

let mode_to_string = function Cbcast -> "CBCAST" | Abcast -> "ABCAST" | Gbcast -> "GBCAST"

type want = No_reply | Wait_n of int | Wait_all

module Uid_ord = struct
  type t = uid

  let compare = uid_compare
end

module Uid_set = Set.Make (Uid_ord)
module Uid_map = Map.Make (Uid_ord)
