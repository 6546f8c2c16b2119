(* splitmix64: the benchmark's own generator, so the inputs it derives
   from --seed never change when the library's PRNGs do. *)

type t = { mutable s : int64 }

let create seed = { s = Int64.of_int seed }

let mix (x : int64) =
  let x = Int64.(mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L) in
  let x = Int64.(mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL) in
  Int64.(logxor x (shift_right_logical x 31))

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix t.s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* A derived seed for one named input stream, so adding a stream never
   shifts the values of another. *)
let derive ~seed tag =
  let h = ref (mix (Int64.of_int seed)) in
  String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) tag;
  Int64.to_int (Int64.shift_right_logical !h 2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
