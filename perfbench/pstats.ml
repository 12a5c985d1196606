(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_beyond = 10

let percentile xs p =
  let n = Array.length xs in
  if not (p > 0.0 && p < 100.0) then Error (Printf.sprintf "percentile %g out of (0, 100)" p)
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let beyond = n - rank in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples leaves %d beyond it; at least %d are needed" p n
           beyond min_beyond)
    else Ok (sorted xs).(max 0 (rank - 1))
