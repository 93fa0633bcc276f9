type 'a t = {
  cap : int;
  mutable data : 'a option array;
      (* grown by doubling up to [cap] on demand, so a ring that is
         never pushed to (a tracer left disabled) allocates nothing *)
  mutable start : int; (* index of the oldest element *)
  mutable len : int;
  mutable lost : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { cap = capacity; data = [||]; start = 0; len = 0; lost = 0 }

let capacity t = t.cap
let length t = t.len
let evicted t = t.lost

let push t x =
  if t.len = t.cap then begin
    (* overwrite the oldest *)
    t.data.(t.start) <- Some x;
    t.start <- (t.start + 1) mod t.cap;
    t.lost <- t.lost + 1
  end
  else begin
    (* Below capacity nothing was evicted yet: [start] is 0 and the
       elements fill a prefix of [data]. *)
    if t.len = Array.length t.data then begin
      let data = Array.make (min t.cap (max 16 (2 * t.len))) None in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- Some x;
    t.len <- t.len + 1
  end

let iter t f =
  for i = 0 to t.len - 1 do
    match t.data.((t.start + i) mod Array.length t.data) with
    | Some x -> f x
    | None -> ()
  done

let to_list t =
  let acc = ref [] in
  iter t (fun x -> acc := x :: !acc);
  List.rev !acc

let clear t =
  t.data <- [||];
  t.start <- 0;
  t.len <- 0
