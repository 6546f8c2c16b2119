(* pmc_demo — run any annotated application on any memory-architecture
   back-end of the simulated many-core SoC and report the Fig. 8-style
   statistics.  With the pmc_trace flags the run additionally becomes an
   analyzable artifact: a Perfetto-loadable trace (--trace), a dynamic
   race check (--race-check), and a replay of the observed values through
   the formal PMC model (--model-check).

     pmc_demo --app raytrace --backend swcc --cores 32 --scale 256
     pmc_demo --app raytrace --backend swcc --trace out.json --race-check
     pmc_demo --list *)

open Cmdliner
open Pmc_sim

let run_app app_name backend_name topology_name cores scale breakdown verify
    trace_file race_check model_check capacity =
  match Pmc_apps.Registry.find app_name with
  | None ->
      Fmt.epr "unknown app %S; try --list@." app_name;
      exit 1
  | Some app -> (
      match Pmc.Backends.of_string backend_name with
      | None ->
          Fmt.epr "unknown backend %S (seqcst|nocc|swcc|dsm|spm|farmem)@."
            backend_name;
          exit 1
      | Some backend ->
          let topology =
            match Topology.resolve topology_name ~cores with
            | Ok t -> t
            | Error e ->
                Fmt.epr "%s@." e;
                exit 1
          in
          let cfg = { Config.default with cores; topology } in
          let tracing = trace_file <> None || race_check || model_check in
          let r, recorder =
            if tracing then
              let outcome, rec_ =
                Pmc_apps.Runner.run_traced ?capacity ~cfg app ~backend ~scale
              in
              (Pmc_apps.Runner.finished outcome, Some rec_)
            else (Pmc_apps.Runner.run ~cfg app ~backend ~scale, None)
          in
          Fmt.pr "%a" Pmc_apps.Runner.pp_result r;
          if breakdown then begin
            let s = r.Pmc_apps.Runner.summary in
            Fmt.pr "%a" Stats.pp_summary s;
            Fmt.pr "  dcache: %d hits / %d misses; icache misses: %d@."
              s.Stats.dcache_hits s.Stats.dcache_misses s.Stats.icache_misses;
            Fmt.pr "  locks: %d acquires, %d transfers; noc writes: %d; \
                    flushes: %d@."
              s.Stats.lock_acquires s.Stats.lock_transfers s.Stats.noc_writes
              s.Stats.flushes
          end;
          let rc = ref 0 in
          (match recorder with
          | None -> ()
          | Some rec_ ->
              let events = Pmc_trace.Recorder.events rec_ in
              let dropped = Pmc_trace.Recorder.dropped_total rec_ in
              Fmt.pr "trace: %d events recorded%s@." (List.length events)
                (if dropped = 0 then ""
                 else Printf.sprintf ", %d dropped (raise --trace-capacity)"
                        dropped);
              (match trace_file with
              | None -> ()
              | Some path ->
                  let stats =
                    Machine.stats (Pmc.Api.machine (Pmc_trace.Recorder.api rec_))
                  in
                  (try
                     Pmc_trace.Export.write_file ~stats ~path events;
                     Fmt.pr "trace: wrote %s (open in ui.perfetto.dev)@." path
                   with Sys_error msg ->
                     Fmt.epr "trace: cannot write %s: %s@." path msg;
                     rc := 2));
              (* a lossy trace is inconclusive (exit 5) unless a definite
                 failure already applies *)
              let judge check ~name ~clean ~found ~pp ~code =
                match
                  Pmc_trace.Replay.verdict check ~cores ~dropped events
                with
                | Pmc_trace.Replay.Consistent -> Fmt.pr "%s: %s@." name clean
                | Pmc_trace.Replay.Violations l ->
                    Fmt.pr "%s: %d %s:@." name (List.length l) found;
                    List.iter (fun x -> Fmt.pr "  %a@." pp x) l;
                    rc := code
                | Pmc_trace.Replay.Inconclusive why ->
                    Fmt.pr "%s: inconclusive: %a (raise --trace-capacity)@."
                      name Pmc_trace.Replay.pp_inconclusive why;
                    if !rc = 0 then rc := 5
              in
              if race_check then
                judge Pmc_trace.Replay.Races ~name:"race check"
                  ~clean:"no data races detected"
                  ~found:"distinct data race(s)"
                  ~pp:Pmc_trace.Racecheck.pp_race ~code:3;
              if model_check then
                judge Pmc_trace.Replay.Model ~name:"model check"
                  ~clean:"run is PMC-consistent (History.check ok)"
                  ~found:"violation(s)" ~pp:Pmc_model.History.pp_violation
                  ~code:4);
          if verify && not (Pmc_apps.Runner.ok r) then begin
            Fmt.epr "checksum mismatch!@.";
            exit 2
          end;
          if !rc <> 0 then exit !rc)

let list_apps () =
  Fmt.pr "applications:@.";
  List.iter (fun n -> Fmt.pr "  %s@." n) Pmc_apps.Registry.names;
  Fmt.pr "back-ends:@.";
  List.iter
    (fun k -> Fmt.pr "  %s@." (Pmc.Backends.to_string k))
    Pmc.Backends.all

let app_t =
  Arg.(value & opt string "raytrace" & info [ "app"; "a" ] ~doc:"Application to run.")

let backend_t =
  Arg.(
    value & opt string "swcc"
    & info [ "backend"; "b" ]
        ~doc:"Memory architecture: seqcst, nocc, swcc, dsm, spm or farmem.")

let cores_t =
  Arg.(value & opt int 32 & info [ "cores"; "c" ] ~doc:"Number of tiles.")

let topology_t =
  Arg.(
    value & opt string "star"
    & info [ "topology" ] ~docv:"FABRIC"
        ~doc:
          "Fabric the tiles are wired in: $(b,star) (uniform ring-distance \
           hops), $(b,mesh:XxY), $(b,torus:XxY) or $(b,hier:CxS) (C \
           clusters of S tiles around a hub ring).  Bare $(b,mesh), \
           $(b,torus) and $(b,hier) pick a near-square factorization of \
           the core count.")

let scale_t =
  Arg.(value & opt int 64 & info [ "scale"; "s" ] ~doc:"Workload scale.")

let breakdown_t =
  Arg.(value & flag & info [ "breakdown" ] ~doc:"Print the stall breakdown.")

let verify_t =
  Arg.(
    value & opt bool true
    & info [ "verify" ] ~doc:"Fail if the checksum mismatches.")

let list_t = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List apps.")

let trace_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace"; "t" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON to $(docv) \
           (open in ui.perfetto.dev).")

let race_check_t =
  Arg.(
    value & flag
    & info [ "race-check" ]
        ~doc:
          "Record the run and check it for dynamic data races (exit 3 if \
           any are found).")

let model_check_t =
  Arg.(
    value & flag
    & info [ "model-check" ]
        ~doc:
          "Record the run and replay it through the formal PMC model's \
           history checker (exit 4 on violation).")

let capacity_t =
  Arg.(
    value & opt (some int) None
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Per-core trace ring capacity (default 65536 events).")

let main app backend topology cores scale breakdown verify trace race_check
    model_check capacity list =
  if list then list_apps ()
  else
    run_app app backend topology cores scale breakdown verify trace
      race_check model_check capacity

(* The exit-code contract, surfaced in --help so scripts and CI can rely
   on it. *)
let exits =
  Cmd.Exit.info 2
    ~doc:
      "the checksum mismatched the sequential reference, or the \
       $(b,--trace) path was unwritable."
  :: Cmd.Exit.info 3 ~doc:"$(b,--race-check) detected a data race."
  :: Cmd.Exit.info 4
       ~doc:
         "$(b,--model-check) found the run inconsistent with the formal \
          PMC model."
  :: Cmd.Exit.info 5
       ~doc:
         "$(b,--race-check) or $(b,--model-check) was inconclusive: the \
          trace rings dropped events (raise $(b,--trace-capacity))."
  :: Cmd.Exit.defaults

let cmd =
  Cmd.v
    (Cmd.info "pmc_demo" ~doc:"Run PMC-annotated apps on simulated SoCs"
       ~exits)
    Term.(
      const main $ app_t $ backend_t $ topology_t $ cores_t $ scale_t
      $ breakdown_t $ verify_t $ trace_t $ race_check_t $ model_check_t
      $ capacity_t $ list_t)

let () = exit (Cmd.eval cmd)
