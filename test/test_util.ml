(* Unit and property tests for the utility library: PRNG, heap, vector
   clocks, sequence trackers. *)

module Rng = Vsync_util.Rng
module Heap = Vsync_util.Heap
module Vclock = Vsync_util.Vclock
module Seqtrack = Vsync_util.Seqtrack

(* --- rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r 5 9 in
    Alcotest.(check bool) "int_in inclusive" true (w >= 5 && w <= 9);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 9L in
  let child = Rng.split parent in
  (* The child stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Rng.bits64 parent) (Rng.bits64 child)) then differs := true
  done;
  Alcotest.(check bool) "split produces a distinct stream" true !differs

let test_rng_bernoulli_extremes () =
  let r = Rng.create 3L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0)

let test_rng_shuffle_permutation () =
  let r = Rng.create 11L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (list int)) "shuffle is a permutation" (List.init 20 Fun.id) (Array.to_list sorted)

(* --- heap --- *)

let test_heap_ordering () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc = match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc in
  Alcotest.(check (list int)) "pops in sorted order" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_stability () =
  (* Equal keys leave in insertion order. *)
  let h = Heap.create ~compare:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let pops = List.init 4 (fun _ -> snd (Heap.pop_exn h)) in
  Alcotest.(check (list string)) "stable among equals" [ "z"; "a"; "b"; "c" ] pops

let test_heap_remove_if () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (Heap.push h) [ 1; 2; 3; 4; 5; 6 ];
  let removed = Heap.remove_if h (fun v -> v mod 2 = 0) in
  Alcotest.(check int) "removed evens" 3 removed;
  let rec drain acc = match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc in
  Alcotest.(check (list int)) "odds remain sorted" [ 1; 3; 5 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~compare:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~compare:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc = match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc in
      drain [] = List.sort compare xs)

(* --- ring --- *)

let test_ring () =
  let r = Vsync_util.Ring.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Vsync_util.Ring.length r);
  List.iter (Vsync_util.Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fills in order" [ 1; 2; 3 ] (Vsync_util.Ring.to_list r);
  Vsync_util.Ring.push r 4;
  Vsync_util.Ring.push r 5;
  Alcotest.(check (list int)) "keeps the newest" [ 3; 4; 5 ] (Vsync_util.Ring.to_list r);
  Alcotest.(check int) "eviction counted" 2 (Vsync_util.Ring.evicted r);
  Vsync_util.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Vsync_util.Ring.length r)

let prop_ring_tail =
  QCheck.Test.make ~name:"ring keeps exactly the tail" ~count:200
    (* capacities past 16 exercise the on-demand growth *)
    QCheck.(pair (1 -- 40) (list int))
    (fun (cap, xs) ->
      let r = Vsync_util.Ring.create ~capacity:cap in
      List.iter (Vsync_util.Ring.push r) xs;
      let n = List.length xs in
      let expected =
        if n <= cap then xs else List.filteri (fun i _ -> i >= n - cap) xs
      in
      Vsync_util.Ring.to_list r = expected)

(* --- vclock --- *)

let test_vclock_basics () =
  let a = Vclock.create 3 in
  Vclock.incr a 0;
  Vclock.incr a 0;
  Vclock.incr a 2;
  Alcotest.(check (list int)) "components" [ 2; 0; 1 ] (Vclock.to_list a);
  let b = Vclock.copy a in
  Vclock.incr b 1;
  Alcotest.(check bool) "a <= b" true (Vclock.leq a b);
  Alcotest.(check bool) "not b <= a" false (Vclock.leq b a);
  Alcotest.(check bool) "a before b" true (Vclock.compare_causal a b = `Before)

let test_vclock_concurrent () =
  let a = Vclock.of_list [ 1; 0 ] and b = Vclock.of_list [ 0; 1 ] in
  Alcotest.(check bool) "concurrent" true (Vclock.compare_causal a b = `Concurrent)

let test_vclock_deliverable () =
  (* Local [2;1;0]; a message from rank 0 stamped [3;1;0] is next. *)
  let local = Vclock.of_list [ 2; 1; 0 ] in
  Alcotest.(check bool) "next in sequence" true
    (Vclock.deliverable ~msg:(Vclock.of_list [ 3; 1; 0 ]) ~local ~sender:0);
  Alcotest.(check bool) "gap" false
    (Vclock.deliverable ~msg:(Vclock.of_list [ 4; 1; 0 ]) ~local ~sender:0);
  Alcotest.(check bool) "missing causal predecessor" false
    (Vclock.deliverable ~msg:(Vclock.of_list [ 3; 2; 0 ]) ~local ~sender:0)

let test_vclock_merge () =
  let a = Vclock.of_list [ 1; 5; 2 ] in
  Vclock.merge a (Vclock.of_list [ 3; 1; 2 ]);
  Alcotest.(check (list int)) "component-wise max" [ 3; 5; 2 ] (Vclock.to_list a)

let test_vclock_dim_mismatch () =
  Alcotest.check_raises "merge mismatched dims"
    (Invalid_argument "Vclock.merge: dimension mismatch (2 vs 3)") (fun () ->
      Vclock.merge (Vclock.create 2) (Vclock.create 3))

let prop_vclock_leq_partial_order =
  QCheck.Test.make ~name:"vclock leq is a partial order" ~count:200
    QCheck.(triple (list_of_size (Gen.return 4) (0 -- 5)) (list_of_size (Gen.return 4) (0 -- 5))
              (list_of_size (Gen.return 4) (0 -- 5)))
    (fun (x, y, z) ->
      let a = Vclock.of_list x and b = Vclock.of_list y and c = Vclock.of_list z in
      (* reflexive, antisymmetric (up to equality), transitive *)
      Vclock.leq a a
      && ((not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b)
      && ((not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c))

(* --- seqtrack --- *)

let test_seqtrack_basics () =
  let t = Seqtrack.create () in
  Alcotest.(check bool) "fresh key unseen" false (Seqtrack.mem t ~key:1 ~seq:1);
  Seqtrack.add t ~key:1 ~seq:3;
  Alcotest.(check bool) "added" true (Seqtrack.mem t ~key:1 ~seq:3);
  Alcotest.(check bool) "gap below stays unseen" false (Seqtrack.mem t ~key:1 ~seq:2);
  Alcotest.(check bool) "other key independent" false (Seqtrack.mem t ~key:2 ~seq:3);
  Alcotest.(check int) "sparse entry counted" 1 (Seqtrack.tail_cardinal t)

let test_seqtrack_compaction () =
  (* Sparse adds stay in the tail until the run touching mark+1 becomes
     dense, then the whole run collapses into the watermark. *)
  let t = Seqtrack.create () in
  List.iter (fun s -> Seqtrack.add t ~key:7 ~seq:s) [ 2; 4; 5 ];
  Alcotest.(check int) "all sparse" 3 (Seqtrack.tail_cardinal t);
  Seqtrack.advance t ~key:7 ~upto:1;
  Alcotest.(check int) "2 absorbed by mark=1" 2 (Seqtrack.tail_cardinal t);
  Alcotest.(check int) "mark compacted through 2" 2 (Seqtrack.mark t ~key:7);
  Seqtrack.add t ~key:7 ~seq:3;
  Alcotest.(check int) "3,4,5 collapse" 0 (Seqtrack.tail_cardinal t);
  Alcotest.(check int) "mark at 5" 5 (Seqtrack.mark t ~key:7);
  List.iter
    (fun s -> Alcotest.(check bool) "prefix covered" true (Seqtrack.mem t ~key:7 ~seq:s))
    [ 2; 3; 4; 5 ]

let test_seqtrack_advance () =
  let t = Seqtrack.create () in
  List.iter (fun s -> Seqtrack.add t ~key:3 ~seq:s) [ 10; 20; 30 ];
  Seqtrack.advance t ~key:3 ~upto:25;
  Alcotest.(check int) "tail above watermark survives" 1 (Seqtrack.tail_cardinal t);
  Alcotest.(check bool) "below watermark is mem" true (Seqtrack.mem t ~key:3 ~seq:15);
  Alcotest.(check bool) "surviving tail is mem" true (Seqtrack.mem t ~key:3 ~seq:30);
  Alcotest.(check bool) "gap above watermark not mem" false (Seqtrack.mem t ~key:3 ~seq:27);
  (* advance never regresses *)
  Seqtrack.advance t ~key:3 ~upto:5;
  Alcotest.(check int) "mark monotone" 25 (Seqtrack.mark t ~key:3)

let prop_seqtrack_matches_set =
  (* Random interleavings of add/advance against a reference model:
     mem(s) iff s was added or covered by an advance. *)
  QCheck.Test.make ~name:"seqtrack mem matches reference set" ~count:300
    QCheck.(list (pair bool (0 -- 60)))
    (fun ops ->
      let t = Seqtrack.create () in
      let added = Hashtbl.create 16 in
      let hi = ref min_int in
      List.iter
        (fun (is_advance, s) ->
          if is_advance then begin
            Seqtrack.advance t ~key:0 ~upto:s;
            if s > !hi then hi := s
          end
          else begin
            Seqtrack.add t ~key:0 ~seq:s;
            Hashtbl.replace added s ()
          end)
        ops;
      List.for_all
        (fun s ->
          Seqtrack.mem t ~key:0 ~seq:s = (s <= !hi || Hashtbl.mem added s))
        (List.init 62 Fun.id))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bernoulli extremes" `Quick test_rng_bernoulli_extremes;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap stability" `Quick test_heap_stability;
    Alcotest.test_case "heap remove_if" `Quick test_heap_remove_if;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "ring buffer" `Quick test_ring;
    QCheck_alcotest.to_alcotest prop_ring_tail;
    Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
    Alcotest.test_case "vclock concurrent" `Quick test_vclock_concurrent;
    Alcotest.test_case "vclock deliverable" `Quick test_vclock_deliverable;
    Alcotest.test_case "vclock merge" `Quick test_vclock_merge;
    Alcotest.test_case "vclock dim mismatch" `Quick test_vclock_dim_mismatch;
    QCheck_alcotest.to_alcotest prop_vclock_leq_partial_order;
    Alcotest.test_case "seqtrack basics" `Quick test_seqtrack_basics;
    Alcotest.test_case "seqtrack compaction" `Quick test_seqtrack_compaction;
    Alcotest.test_case "seqtrack advance" `Quick test_seqtrack_advance;
    QCheck_alcotest.to_alcotest prop_seqtrack_matches_set;
  ]
