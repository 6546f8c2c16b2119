let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let string s = add offset s
let hex h = Printf.sprintf "%016Lx" h
