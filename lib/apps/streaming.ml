(* Streaming pipeline over the multi-reader/multi-writer FIFO of Fig. 9 —
   the distributed-memory use case of Section VI-B ("such FIFO in
   combination with distributed memory is useful in streaming
   applications").

   A three-stage pipeline: a source produces samples, every filter core
   consumes the *same* stream (the FIFO is a broadcast FIFO: the writer
   waits until all readers got each slot), transforms its samples and
   pushes its partial results into a collection FIFO drained by a sink.

   On the DSM back-end all pointer polling happens in local memories, so
   stages never disturb each other — the property the paper highlights. *)

open Pmc_sim

let elem_words = 4
let fifo_depth = 8

let transform ~filter (v : int32) =
  Int32.add (Int32.mul v (Int32.of_int (filter + 3))) (Int32.of_int filter)

let setup (api : Pmc.Api.t) ~scale =
  let m = Pmc.Api.machine api in
  let cfg = Machine.config m in
  let cores = cfg.Config.cores in
  (* each stage needs a core of its own: a filter sharing the sink's
     core would nest their FIFO scopes *)
  if cores < 3 then
    Pmc_error.raise_error ~op:"Streaming.setup"
      "needs ≥ 3 cores: source, filter, sink (got %d)" cores;
  let filters = cores - 2 in
  let samples = scale in
  let feed =
    Pmc.Fifo.create api ~name:"feed" ~depth:fifo_depth ~elem_words
      ~readers:filters
  in
  let out =
    Pmc.Fifo.create api ~name:"out" ~depth:fifo_depth ~elem_words ~readers:1
  in
  (* source on core 0 *)
  Machine.spawn m ~core:0 (fun () ->
      for s = 0 to samples - 1 do
        let v = Int32.of_int ((s * 13) + 1) in
        Pmc.Fifo.push feed
          (Array.init elem_words (fun w ->
               Int32.add v (Int32.of_int w)));
        Machine.instr m 20
      done);
  (* filters on cores 1..filters *)
  for f = 0 to filters - 1 do
    Machine.spawn m ~core:(1 + f) (fun () ->
        for _ = 0 to samples - 1 do
          let d = Pmc.Fifo.pop feed ~reader:f in
          Machine.instr m 40;
          Pmc.Fifo.push out (Array.map (transform ~filter:f) d)
        done)
  done;
  (* sink on the last core *)
  let sink_total = ref 0L in
  Machine.spawn m ~core:(cores - 1) (fun () ->
      for _ = 0 to (samples * filters) - 1 do
        let d = Pmc.Fifo.pop out ~reader:0 in
        Array.iter
          (fun v -> sink_total := Int64.add !sink_total (Int64.of_int32 v))
          d
      done);
  fun () -> !sink_total

let reference ~seed:_ ~cores ~scale =
  let filters = max 1 (cores - 2) in
  let total = ref 0L in
  for s = 0 to scale - 1 do
    let v = Int32.of_int ((s * 13) + 1) in
    for f = 0 to filters - 1 do
      for w = 0 to elem_words - 1 do
        let x = transform ~filter:f (Int32.add v (Int32.of_int w)) in
        total := Int64.add !total (Int64.of_int32 x)
      done
    done
  done;
  !total

let app : Runner.app =
  {
    name = "streaming";
    code_footprint = 8 * 1024;
    jump_prob = 0.04;
    setup;
    reference;
  }
