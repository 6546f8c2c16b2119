type t = { p : float array }

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  let w = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 w in
  { p = Array.map (fun x -> x /. total) w }

let prob t k = t.p.(k)

(* Largest-remainder rounding of total·p: the floors first, then one
   more for the ranks with the largest remainders (lower rank first on
   ties). *)
let quotas t ~total =
  if total < 0 then invalid_arg "Zipf.quotas: total < 0";
  let exact = Array.map (fun p -> p *. float_of_int total) t.p in
  let q = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let left = total - Array.fold_left ( + ) 0 q in
  let order = Array.init (Array.length q) Fun.id in
  let rem k = exact.(k) -. float_of_int q.(k) in
  Array.stable_sort (fun a b -> compare (rem b) (rem a)) order;
  for i = 0 to left - 1 do
    q.(order.(i)) <- q.(order.(i)) + 1
  done;
  q

let stream t rng ~total ~min_each =
  let extra = total - (min_each * Array.length t.p) in
  if extra < 0 then invalid_arg "Zipf.stream: total < min_each * n";
  let q = Array.map (fun c -> c + min_each) (quotas t ~total:extra) in
  let s = Array.make total 0 and i = ref 0 in
  Array.iteri
    (fun k c ->
      for _ = 1 to c do
        s.(!i) <- k;
        incr i
      done)
    q;
  Rng.shuffle rng s;
  s
