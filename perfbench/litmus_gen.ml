(* Seeded litmus programs for the verify workload: three threads of two
   blocks each over two locations.  Sized so that one program
   enumerates in tens of milliseconds under every model and stays far
   below Litmus.enumerate's default state limit. *)

open Perfbench_util
module Lprog = Pmc_model.Lprog

let threads = 3
let locs = 2
let regs = 2

(* Every program has the same mix of blocks — two stores, two loads,
   one fence or flush and one lock-protected store — so that the seed
   changes which thread issues what, on which location, in which order,
   but not the size of the state space by much. *)
let blocks rng =
  let loc () = Rng.int rng locs in
  [|
    `St (loc ()); `St (loc ()); `Ld (loc ()); `Ld (loc ());
    (if Rng.int rng 2 = 0 then `Fence else `Flush (loc ()));
    `Locked (loc ());
  |]

let program rng i =
  let b = blocks rng in
  Rng.shuffle rng b;
  let value = ref 0 in
  let thread t =
    let reg = ref (-1) in
    List.concat_map
      (fun blk ->
        match blk with
        | `St loc -> incr value; [ Lprog.St { loc; v = Lprog.Const !value } ]
        | `Ld loc -> reg := !reg + 1; [ Lprog.Ld { loc; reg = !reg mod regs } ]
        | `Fence -> [ Lprog.Fence ]
        | `Flush loc -> [ Lprog.Flush loc ]
        | `Locked loc ->
            incr value;
            [ Lprog.Acq loc; Lprog.St { loc; v = Lprog.Const !value }; Lprog.Rel loc ])
      [ b.(2 * t); b.((2 * t) + 1) ]
  in
  Lprog.make ~name:(Printf.sprintf "gen%d" i) ~locs ~regs
    (List.init threads thread)

let generate ~seed ~count =
  let rng = Rng.create (Rng.derive ~seed "verify.litmus") in
  List.init count (program rng)
