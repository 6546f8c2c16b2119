let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let nearest_rank xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Pct.nearest_rank: p";
  let a = sorted xs in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

let median xs = nearest_rank xs ~p:50.0
