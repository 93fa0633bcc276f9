type t = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable shift : int; (* exponential backoff exponent *)
  mutable n : int;
}

let default_min_timeout_us = 10_000
let min_timeout_us = float_of_int default_min_timeout_us
let max_timeout_us = 10_000_000.0

let create () = { srtt = 50_000.0; rttvar = 25_000.0; shift = 0; n = 0 }

let observe t rtt_us =
  let rtt = float_of_int rtt_us in
  if t.n = 0 then begin
    t.srtt <- rtt;
    t.rttvar <- rtt /. 2.0
  end
  else begin
    (* RFC 6298 constants: alpha = 1/8, beta = 1/4. *)
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. rtt));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. rtt)
  end;
  t.shift <- 0;
  t.n <- t.n + 1

let srtt_us t = int_of_float t.srtt

let timeout_us t =
  let base = t.srtt +. (4.0 *. t.rttvar) in
  let scaled = base *. float_of_int (1 lsl t.shift) in
  int_of_float (Float.min max_timeout_us (Float.max min_timeout_us scaled))

let backoff t = if t.shift < 10 then t.shift <- t.shift + 1

let samples t = t.n
