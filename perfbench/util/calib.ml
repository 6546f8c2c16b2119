type t = { mutable times : float list (* newest first *); mutable count : int }

let create () = { times = []; count = 0 }

(* Short-lived lists kept in a small table: minor allocation, table
   lookups and stores.  The table has 128 buckets, so it is itself a
   young block and no store reaches the major heap; one chunk allocates
   ~127k words, less than the default minor heap of 256k words.  So a
   chunk that starts on an empty minor heap runs no collection and
   touches nothing of the major heap: its time does not depend on the
   size or the collection phase of the process's heap. *)
let chunk () =
  let h = Hashtbl.create 128 in
  for i = 0 to 7_500 do
    let prev = Option.value ~default:[] (Hashtbl.find_opt h ((i * 31) land 127)) in
    Hashtbl.replace h (i land 127) (List.filteri (fun j _ -> j < 4) (i :: prev))
  done;
  Hashtbl.length h

let chunks = 8

let sample t =
  let total = ref 0.0 in
  for _ = 1 to chunks do
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (chunk ()));
    total := !total +. (Unix.gettimeofday () -. t0)
  done;
  t.times <- !total :: t.times;
  t.count <- t.count + 1

let count t = t.count
let samples t = Array.of_list (List.rev t.times)
let reference_s = 0.006

let scale t ~elasticity =
  match t.times with
  | [] -> 1.0
  | _ -> Float.pow (reference_s /. Pct.median (samples t)) elasticity

let scale_at samples i ~elasticity =
  let n = Array.length samples in
  if n = 0 then 1.0
  else
    let at j = samples.(max 0 (min (n - 1) j)) in
    Float.pow (reference_s /. Float.sqrt (at (i - 1) *. at i)) elasticity
