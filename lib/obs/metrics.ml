(* Unified metrics registry: counters and callback gauges under one
   namespace, so consumers (the oracle's hygiene checks, the bench
   harness, the ledger) sample state by name instead of knowing which
   module owns which accessor. *)

type counter = { mutable c : int }
type source = Counter_src of counter | Gauge_src of (unit -> int)

type t = {
  tbl : (string, source) Hashtbl.t;
  mutable names : string list; (* reverse registration order *)
}

type value = Counter_v of int | Gauge_v of int

let create () = { tbl = Hashtbl.create 32; names = [] }

let register t name src =
  if Hashtbl.mem t.tbl name then invalid_arg ("Metrics: duplicate metric " ^ name);
  Hashtbl.replace t.tbl name src;
  t.names <- name :: t.names

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter_src c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c = 0 } in
    register t name (Counter_src c);
    c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let gauge t name f = register t name (Gauge_src f)

let read_source = function
  | Counter_src c -> Counter_v c.c
  | Gauge_src f -> Gauge_v (f ())

let read t name = Option.map read_source (Hashtbl.find_opt t.tbl name)

let read_int t name =
  match read t name with
  | Some (Counter_v v | Gauge_v v) -> Some v
  | None -> None

let snapshot t =
  List.rev_map (fun name -> (name, read_source (Hashtbl.find t.tbl name))) t.names

let names t = List.rev t.names

(* Cross-registry aggregation: every site of a world carries its own
   registry, and [World.metrics] merges their snapshots into one
   world-wide view.  Counters and gauges sum (gauges here are
   already-sampled numbers, not live closures). *)
let merge_snapshots snaps =
  let order = ref [] in
  let acc : (string, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, v) ->
         match Hashtbl.find_opt acc name with
         | None ->
           order := name :: !order;
           Hashtbl.replace acc name v
         | Some prev ->
           let merged =
             match (prev, v) with
             | Counter_v a, Counter_v b -> Counter_v (a + b)
             | Gauge_v a, Gauge_v b -> Gauge_v (a + b)
             | _ ->
               invalid_arg
                 (Printf.sprintf "Metrics.merge_snapshots: %S has mismatched kinds" name)
           in
           Hashtbl.replace acc name merged))
    snaps;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order
