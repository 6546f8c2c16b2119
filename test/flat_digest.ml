(* Prints a deterministic digest of simulator behaviour — wall cycles,
   checksums, every Stats counter, the per-category cycle split and model
   replay verdicts — over a matrix of (app, back-end, cores, chaos) runs.

   The committed flat_golden.expected was generated by the pre-flat-core
   simulator (the seed layout); the runtest diff proves the flat hot core
   (Bigarray memories, arena scheduler, no-sink probe fast path) is
   cycle- and value-identical to it, disarmed and armed.  Regenerate only
   for a change that is *meant* to alter timing:

     dune build @all && _build/default/test/flat_digest.exe \
       > test/flat_golden.expected *)

open Pmc_sim

let cases =
  [ ("streaming", 8); ("stencil", 4); ("histogram", 16); ("reduce", 128) ]

let backends =
  [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm ]

(* chaos seed 7 arms every fault class at the default intensity *)
let planes = [ ("plain", None); ("chaos7", Some 7) ]

let digest_run ~app_name ~scale ~backend ~cores ~plane_name ~chaos ~replay =
  let app =
    match Pmc_apps.Registry.find app_name with
    | Some a -> a
    | None -> failwith ("unknown app " ^ app_name)
  in
  let cfg = { Config.small with cores } in
  let cfg = match chaos with None -> cfg | Some seed -> Config.chaos ~seed cfg in
  let r, verdict =
    if replay then
      let outcome, rec_ =
        Pmc_apps.Runner.run_traced ~cfg app ~backend ~scale
      in
      let verdict =
        match
          Pmc_trace.Replay.verdict Pmc_trace.Replay.Model ~cores
            ~dropped:(Pmc_trace.Recorder.dropped_total rec_)
            (Pmc_trace.Recorder.events rec_)
        with
        | Pmc_trace.Replay.Consistent -> " verdict=consistent"
        | Pmc_trace.Replay.Violations _ -> " verdict=violation"
        | Pmc_trace.Replay.Inconclusive _ -> " verdict=dropped"
      in
      (Pmc_apps.Runner.finished outcome, verdict)
    else (Pmc_apps.Runner.run ~cfg app ~backend ~scale, "")
  in
  let s = r.Pmc_apps.Runner.summary in
  let cats =
    String.concat ";"
      (List.map
         (fun c -> string_of_int (Stats.category_cycles s c))
         Stats.categories)
  in
  Printf.printf
    "%s/%s/c%d/s%d/%s wall=%d sum=%Ld ref=%Ld instr=%d flits=%d writes=%d \
     flushes=%d acq=%d xfer=%d dmiss=%d dhit=%d imiss=%d cyc=[%s]%s\n"
    app_name
    (Pmc.Backends.to_string backend)
    cores scale plane_name r.Pmc_apps.Runner.wall r.Pmc_apps.Runner.checksum
    r.Pmc_apps.Runner.reference s.Stats.instructions s.Stats.noc_flits
    s.Stats.noc_writes s.Stats.flushes s.Stats.lock_acquires
    s.Stats.lock_transfers s.Stats.dcache_misses s.Stats.dcache_hits
    s.Stats.icache_misses cats verdict

let () =
  List.iter
    (fun (app_name, scale) ->
      List.iter
        (fun backend ->
          List.iter
            (fun cores ->
              List.iter
                (fun (plane_name, chaos) ->
                  (* replay the trace through the model on the disarmed
                     4-core runs — enough to pin verdicts without tracing
                     every cell of the matrix *)
                  let replay = chaos = None && cores = 4 in
                  digest_run ~app_name ~scale ~backend ~cores ~plane_name
                    ~chaos ~replay)
                planes)
            [ 4; 8 ])
        backends)
    cases
