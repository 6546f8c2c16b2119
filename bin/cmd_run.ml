(* pmc run — run any annotated application on any memory-architecture
   back-end of the simulated many-core SoC and report the Fig. 8-style
   statistics.  With the tracing flags the run additionally becomes an
   analyzable artifact: a Perfetto-loadable trace (--trace), a dynamic
   race check (--race-check), and a replay of the observed values through
   the formal PMC model (--model-check).

     pmc run --app raytrace --backend swcc --cores 32 --scale 256
     pmc run --app raytrace --backend swcc --trace out.json --race-check
     pmc run --list *)

open Cmdliner
open Pmc_sim

(* The trace report: export, race check, model replay.  Returns the exit
   code; a lossy trace is inconclusive (5) unless a definite failure
   already applies. *)
let report_trace rec_ ~cores ~trace_file ~race_check ~model_check =
  let rc = ref 0 in
  let events = Pmc_trace.Recorder.events rec_ in
  let dropped = Pmc_trace.Recorder.dropped_total rec_ in
  Fmt.pr "trace: %d events recorded%s@." (List.length events)
    (if dropped = 0 then ""
     else Printf.sprintf ", %d dropped (raise --trace-capacity)" dropped);
  (match trace_file with
  | None -> ()
  | Some path -> (
      let stats =
        Machine.stats (Pmc.Api.machine (Pmc_trace.Recorder.api rec_))
      in
      try
        Pmc_trace.Export.write_file ~stats ~path events;
        Fmt.pr "trace: wrote %s (open in ui.perfetto.dev)@." path
      with Sys_error msg ->
        Fmt.epr "trace: cannot write %s: %s@." path msg;
        rc := 2));
  let judge check ~name ~clean ~found ~pp ~code =
    match Pmc_trace.Replay.verdict check ~cores ~dropped events with
    | Pmc_trace.Replay.Consistent -> Fmt.pr "%s: %s@." name clean
    | Pmc_trace.Replay.Violations l ->
        Fmt.pr "%s: %d %s:@." name (List.length l) found;
        List.iter (fun x -> Fmt.pr "  %a@." pp x) l;
        rc := code
    | Pmc_trace.Replay.Inconclusive why ->
        Fmt.pr "%s: inconclusive: %a (raise --trace-capacity)@." name
          Pmc_trace.Replay.pp_inconclusive why;
        if !rc = 0 then rc := 5
  in
  if race_check then
    judge Pmc_trace.Replay.Races ~name:"race check"
      ~clean:"no data races detected" ~found:"distinct data race(s)"
      ~pp:Pmc_trace.Racecheck.pp_race ~code:3;
  if model_check then
    judge Pmc_trace.Replay.Model ~name:"model check"
      ~clean:"run is PMC-consistent (History.check ok)" ~found:"violation(s)"
      ~pp:Pmc_model.History.pp_violation ~code:4;
  !rc

let run_app app backend topology cores scale breakdown verify trace_file
    race_check model_check capacity =
  let app = Cli.find_app app and backend = Cli.find_backend backend in
  let cfg = Cli.config ~topology ~cores ~scale () in
  let tracing = trace_file <> None || race_check || model_check in
  let r, recorder =
    try
      if tracing then
        let outcome, rec_ =
          Pmc_apps.Runner.run_traced ?capacity ~cfg app ~backend ~scale
        in
        (Pmc_apps.Runner.finished outcome, Some rec_)
      else (Pmc_apps.Runner.run ~cfg app ~backend ~scale, None)
    with
    | Pmc_error.Error c -> Cli.fail "%s" (Pmc_error.to_string c)
    | Engine.Watchdog n -> Cli.fail "watchdog: no progress by cycle %d" n
    | Engine.Deadlock msg -> Cli.fail "deadlock: %s" msg
  in
  Fmt.pr "%a" Pmc_apps.Runner.pp_result r;
  if breakdown then begin
    let s = r.Pmc_apps.Runner.summary in
    Fmt.pr "%a" Stats.pp_summary s;
    Fmt.pr "  dcache: %d hits / %d misses; icache misses: %d@."
      s.Stats.dcache_hits s.Stats.dcache_misses s.Stats.icache_misses;
    Fmt.pr "  locks: %d acquires, %d transfers; noc writes: %d; flushes: %d@."
      s.Stats.lock_acquires s.Stats.lock_transfers s.Stats.noc_writes
      s.Stats.flushes
  end;
  let rc =
    match recorder with
    | None -> 0
    | Some rec_ -> report_trace rec_ ~cores ~trace_file ~race_check ~model_check
  in
  if verify && not (Pmc_apps.Runner.ok r) then begin
    Fmt.epr "checksum mismatch!@.";
    3
  end
  else rc

let list_apps () =
  Fmt.pr "applications:@.";
  List.iter (fun n -> Fmt.pr "  %s@." n) Pmc_apps.Registry.names;
  Fmt.pr "back-ends:@.";
  List.iter
    (fun k -> Fmt.pr "  %s@." (Pmc.Backends.to_string k))
    Pmc.Backends.all;
  0

let main app backend topology cores scale breakdown verify trace race_check
    model_check capacity list =
  if list then list_apps ()
  else
    run_app app backend topology cores scale breakdown verify trace
      race_check model_check capacity

let cmd =
  Cli.cmd "run" ~doc:"Run a PMC-annotated app on a simulated SoC"
    Term.(
      const main $ Cli.app "raytrace" $ Cli.backend "swcc" $ Cli.topology
      $ Cli.cores 32 $ Cli.scale 64 $ Cli.breakdown $ Cli.verify $ Cli.trace
      $ Cli.race_check $ Cli.model_check $ Cli.trace_capacity $ Cli.list)
