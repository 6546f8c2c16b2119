(* pmc chaos — fault-injection soak harness.

     pmc chaos soak --seeds 20 --backend dsm
         run every registered app under 20 seeded fault schedules;
         each run must complete correctly or fail with a typed error —
         a silent wrong answer (exit 3) or a PMC-inconsistent trace
         (exit 4) fails the soak;
     pmc chaos soak --seeds 20 --smoke
         the CI gate: three kernels at a small geometry;
     pmc chaos run --app stencil --seed 7 --intensity 2.0
         one seeded run with its full fault and verdict report;
     pmc chaos crash --seeds 0..255 --backend farmem
         power-cut crash-recovery experiments on the far-memory tier:
         each seed's run is cut at a deterministic cycle, recovery
         replays the redo log from the durable image, and the checker
         requires no torn object (exit 3) and a PMC-consistent durable
         prefix (exit 4);
     pmc chaos zerocost --baseline BENCH_BASELINE.json
         assert the zero-cost-when-off invariant: disarmed chaos
         machines ([Config.no_faults (Config.chaos ...)]) reproduce the
         fault-free runs bit for bit, including the committed benchmark
         baseline's architectural metrics.

   Seeded runs go through the shared Pmc_jobs layer — the same code
   path the `pmc serve` daemon runs. *)

open Cmdliner
open Pmc_sim

(* The smoke matrix: three kernels with distinct traffic shapes at a
   geometry small enough for CI. *)
let smoke_apps = [ "histogram"; "reduce"; "stencil" ]

let wall_apps ~smoke = function
  | Some a -> [ a ]
  | None -> if smoke then smoke_apps else Pmc_apps.Registry.names

(* Run a wall of seeds on the pool; results come back in wall order at
   any width.  The job layer validates every name and geometry, so a
   rejected job is an input error. *)
let run_wall ~name ~jobs wall =
  let results =
    Pmc_par.Pool.with_pool ~jobs (fun pool -> Pmc_jobs.Run.run_all ~pool wall)
  in
  List.iter
    (function
      | Pmc_jobs.Result.Error e ->
          Cli.fail "%s: %s" name e.Pmc_jobs.Result.detail
      | _ -> ())
    results;
  results

(* A failing wall exits with its worst verdict's code: 4 (a model
   inconsistency) over 3 (a wrong result, a torn object) over 2 (an
   experiment error). *)
let wall_exit_code results =
  List.fold_left (fun c r -> max c (Pmc_jobs.Result.exit_code r)) 0 results

(* ---------------- soak ---------------- *)

(* The smoke gate: with the model check on, every completed run must
   have been replayed — an inconclusive trace (ring overflow, replay
   budget) is not a pass. *)
let gate_unchecked ~smoke ~no_model_check unchecked =
  if smoke && (not no_model_check) && unchecked > 0 then begin
    Fmt.epr "%d passing run(s) not model-checked@." unchecked;
    5
  end
  else 0

let soak app backend topology cores scale seeds seed_base intensity smoke
    no_model_check replay_budget jobs quiet =
  (* smoke geometry: small enough that every trace fits the replay
     budget and the model checker runs on every completed seed *)
  let cores, scale = if smoke then (4, min scale 4) else (cores, scale) in
  let results =
    Pmc_jobs.Run.chaos_wall ~apps:(wall_apps ~smoke app) ~backend ~topology
      ~cores ~scale
      ~seeds:(List.init (max 1 seeds) (fun i -> seed_base + i))
      ~intensity ~model_check:(not no_model_check) ~replay_budget
    |> run_wall ~name:"soak" ~jobs
  in
  let reports =
    List.filter_map
      (function Pmc_jobs.Result.Chaos_soaked r -> Some r | _ -> None)
      results
  in
  if not quiet then
    List.iter (fun r -> Fmt.pr "%a@." Pmc_apps.Chaos.pp_report r) reports;
  let s = Pmc_apps.Chaos.summarize reports in
  Fmt.pr "%a@." Pmc_apps.Chaos.pp_soak s;
  Fmt.pr "%a@." Pmc_apps.Chaos.pp_tag_summary (Pmc_apps.Chaos.soak_counts s);
  if not (Pmc_apps.Chaos.ok s) then begin
    List.iter
      (fun (r : Pmc_apps.Chaos.report) ->
        if not (Pmc_apps.Chaos.acceptable r.Pmc_apps.Chaos.verdict) then
          Fmt.epr "FAILED: %a@." Pmc_apps.Chaos.pp_report r)
      s.Pmc_apps.Chaos.reports;
    wall_exit_code results
  end
  else gate_unchecked ~smoke ~no_model_check s.Pmc_apps.Chaos.unchecked

(* ---------------- crash ---------------- *)

(* --seeds accepts either a count N (seeds seed-base .. seed-base+N-1)
   or an inclusive range A..B. *)
let parse_seed_list ~seed_base s =
  let fail () =
    Cli.fail "bad --seeds %S: expected a count N or a range A..B" s
  in
  match String.split_on_char '.' s with
  | [ n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> List.init n (fun i -> seed_base + i)
      | _ -> fail ())
  | [ a; ""; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b >= a -> List.init (b - a + 1) (fun i -> a + i)
      | _ -> fail ())
  | _ -> fail ()

let crash app backend topology cores scale seeds seed_base window no_log
    smoke no_model_check replay_budget jobs quiet =
  let cores, scale = if smoke then (4, min scale 4) else (cores, scale) in
  let results =
    Pmc_jobs.Run.crash_wall ~apps:(wall_apps ~smoke app) ~backend ~topology
      ~cores ~scale ~seeds:(parse_seed_list ~seed_base seeds) ~window
      ~log:(not no_log) ~model_check:(not no_model_check) ~replay_budget
    |> run_wall ~name:"crash" ~jobs
  in
  let reports =
    List.filter_map
      (function Pmc_jobs.Result.Crash_checked r -> Some r | _ -> None)
      results
  in
  if not quiet then
    List.iter (fun r -> Fmt.pr "%a@." Pmc_apps.Crash.pp_report r) reports;
  let s = Pmc_apps.Crash.summarize reports in
  Fmt.pr "%a@." Pmc_apps.Crash.pp_sweep s;
  if not (Pmc_apps.Crash.ok s) then begin
    List.iter
      (fun (r : Pmc_apps.Crash.report) ->
        if not (Pmc_apps.Crash.acceptable r.Pmc_apps.Crash.verdict) then
          Fmt.epr "FAILED: %a@." Pmc_apps.Crash.pp_report r)
      s.Pmc_apps.Crash.reports;
    wall_exit_code results
  end
  else gate_unchecked ~smoke ~no_model_check s.Pmc_apps.Crash.unchecked

(* ---------------- zerocost ---------------- *)

(* Identity matrix: each smoke app on the replication-heavy back-ends. *)
let zerocost_identity ~seed ~quiet =
  let failures = ref 0 in
  List.iter
    (fun name ->
      let app = Cli.find_app name in
      List.iter
        (fun backend ->
          let id =
            Pmc_apps.Chaos.zero_cost_identity app ~backend ~cores:8 ~scale:16
              ~seed
          in
          if id.Pmc_apps.Chaos.identical then begin
            if not quiet then
              Fmt.pr "identical  %-10s %s@." name
                (Pmc.Backends.to_string backend)
          end
          else begin
            incr failures;
            Fmt.epr "DIFFERS    %-10s %s: %s@." name
              (Pmc.Backends.to_string backend)
              id.Pmc_apps.Chaos.detail
          end)
        [
          Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm;
          Pmc.Backends.Farmem;
        ])
    smoke_apps;
  !failures

(* Replay the committed benchmark baseline's cases on a disarmed-chaos
   machine and require every architectural metric to match exactly —
   the strongest form of "no perf cost when off". *)
let zerocost_baseline ~path ~seed ~quiet =
  let report =
    try Pmc_bench.Report.load path
    with Sys_error msg | Failure msg -> Cli.fail "cannot load %s: %s" path msg
  in
  let failures = ref 0 in
  (* model-plane (check) cases carry work counts, not simulator metrics;
     there is no machine to disarm, so they are outside this gate *)
  let sim_samples =
    List.filter
      (fun (s : Pmc_bench.Measure.sample) ->
        s.Pmc_bench.Measure.case.Pmc_bench.Spec.work = Pmc_bench.Spec.Sim)
      report.Pmc_bench.Report.samples
  in
  List.iter
    (fun (s : Pmc_bench.Measure.sample) ->
      let case = s.Pmc_bench.Measure.case in
      let app = Cli.find_app case.Pmc_bench.Spec.app in
      let cfg =
        Config.no_faults
          (Config.chaos ~seed
             { Config.default with cores = case.Pmc_bench.Spec.cores;
               topology = case.Pmc_bench.Spec.topology })
      in
      let cfg =
        if report.Pmc_bench.Report.unbatched then Config.unbatched cfg
        else cfg
      in
      let r =
        Pmc_apps.Runner.run ~cfg app ~backend:case.Pmc_bench.Spec.backend
          ~scale:case.Pmc_bench.Spec.scale
      in
      let m = s.Pmc_bench.Measure.metrics in
      let sum = r.Pmc_apps.Runner.summary in
      let mismatches =
        List.filter_map
          (fun (name, base, cur) ->
            if base = cur then None
            else Some (Printf.sprintf "%s %d->%d" name base cur))
          [
            ("cycles", m.Pmc_bench.Measure.cycles, r.Pmc_apps.Runner.wall);
            ("noc_flits", m.Pmc_bench.Measure.noc_flits, sum.Stats.noc_flits);
            ( "noc_writes",
              m.Pmc_bench.Measure.noc_writes,
              sum.Stats.noc_writes );
            ("flushes", m.Pmc_bench.Measure.flushes, sum.Stats.flushes);
            ( "lock_acquires",
              m.Pmc_bench.Measure.lock_acquires,
              sum.Stats.lock_acquires );
            ( "lock_transfers",
              m.Pmc_bench.Measure.lock_transfers,
              sum.Stats.lock_transfers );
            ( "dcache_misses",
              m.Pmc_bench.Measure.dcache_misses,
              sum.Stats.dcache_misses );
            ( "instructions",
              m.Pmc_bench.Measure.instructions,
              sum.Stats.instructions );
          ]
      in
      let id = Pmc_bench.Spec.case_id case in
      if mismatches = [] then begin
        if not quiet then Fmt.pr "identical  %s@." id
      end
      else begin
        incr failures;
        Fmt.epr "DIFFERS    %s: %s@." id (String.concat ", " mismatches)
      end)
    sim_samples;
  !failures

let zerocost baseline seed quiet =
  let identity = zerocost_identity ~seed ~quiet in
  let failures =
    identity
    + Option.fold ~none:0
        ~some:(fun path -> zerocost_baseline ~path ~seed ~quiet)
        baseline
  in
  if failures > 0 then begin
    Fmt.epr
      "zerocost: %d case(s) differ — the disarmed fault plane is not free@."
      failures;
    3
  end
  else begin
    Fmt.pr "zerocost: disarmed chaos machines are bit-identical to baseline@.";
    0
  end

let cmd =
  let quiet = Cli.quiet ~doc:"Only print the summary." in
  let jobs = Cli.jobs ~action:"Run the wall of seeds" in
  Cli.group "chaos"
    ~doc:"Fault injection and chaos soak harness for the PMC simulator"
    [
      Cli.cmd "soak" ~doc:"Run apps under a wall of seeded fault schedules"
        Term.(
          const soak $ Cli.one_app $ Cli.backend "dsm" $ Cli.topology
          $ Cli.cores 8 $ Cli.scale 16 $ Cli.seed_count $ Cli.seed_base
          $ Cli.intensity $ Cli.smoke $ Cli.no_model_check $ Cli.replay_budget
          $ jobs $ quiet);
      Cli.cmd "run" ~doc:"One seeded chaos run with a full report"
        Term.(const (fun job -> Cli.run_local job) $ Cli.chaos_job);
      Cli.cmd "crash"
        ~doc:"Power-cut crash-recovery experiments on the far-memory tier"
        Term.(
          const crash $ Cli.one_app $ Cli.crash_backend $ Cli.topology
          $ Cli.cores 8 $ Cli.scale 16 $ Cli.seed_range $ Cli.seed_base
          $ Cli.window $ Cli.no_log $ Cli.smoke $ Cli.no_model_check
          $ Cli.replay_budget $ jobs $ quiet);
      Cli.cmd "zerocost" ~doc:"Assert the disarmed fault plane costs nothing"
        Term.(const zerocost $ Cli.baseline $ Cli.seed $ quiet);
    ]

