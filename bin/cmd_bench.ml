(* pmc bench — benchmark regression harness for the PMC simulator.

   `run` measures a suite of (app × back-end × cores × scale) cases with
   warmup, repeats and outlier trimming, and writes a schema-versioned
   JSON report; `compare` diffs two reports against per-metric
   tolerances and exits 1 on regression — the CI gate against the
   committed BENCH_BASELINE.json.

     pmc bench run --suite smoke --label pr -o BENCH_pr.json
     pmc bench run --suite smoke --unbatched -o BENCH_unbatched.json
     pmc bench compare BENCH_BASELINE.json BENCH_pr.json
     pmc bench compare base.json pr.json --tolerance cycles=0.05 *)

open Cmdliner

let load_report path =
  try Pmc_bench.Report.load path with
  | Sys_error msg -> Cli.fail "%s" msg
  | Failure msg | Pmc_bench.Json.Parse_error msg -> Cli.fail "%s: %s" path msg

(* ---------------- run ---------------- *)

(* Apply the --app / --cores / --topology overrides to every case of the
   suite; topology names resolve against the (possibly overridden) core
   count. *)
let override_cases ~apps ~topology ~cores (spec : Pmc_bench.Spec.t) =
  let keep (c : Pmc_bench.Spec.case) =
    apps = [] || List.mem c.Pmc_bench.Spec.app apps
  in
  let override (c : Pmc_bench.Spec.case) =
    let c =
      match cores with None -> c | Some n -> { c with Pmc_bench.Spec.cores = n }
    in
    match topology with
    | None -> c
    | Some name ->
        { c with
          Pmc_bench.Spec.topology =
            Cli.find_topology name ~cores:c.Pmc_bench.Spec.cores }
  in
  match List.filter keep spec.Pmc_bench.Spec.cases with
  | [] -> Cli.fail "--app filter matched no case of the suite"
  | cases -> { spec with Pmc_bench.Spec.cases = List.map override cases }

let run suite_name label out unbatched warmup repeat apps topology cores jobs
    quiet =
  match Pmc_bench.Spec.suite ~label ~unbatched ~warmup ~repeat suite_name with
  | None ->
      Cli.fail "unknown suite %S (known: %s)" suite_name
        (String.concat ", " Pmc_bench.Spec.suite_names)
  | Some spec ->
      let spec = override_cases ~apps ~topology ~cores spec in
      let report =
        Pmc_par.Pool.with_pool ~jobs (fun pool ->
            Pmc_bench.Report.run ~pool spec)
      in
      if not quiet then Fmt.pr "%a" Pmc_bench.Report.pp report;
      Option.iter
        (fun path ->
          try
            Pmc_bench.Report.save path report;
            if not quiet then Fmt.pr "wrote %s@." path
          with Sys_error msg -> Cli.fail "cannot write %s: %s" path msg)
        out;
      if
        List.exists
          (fun (s : Pmc_bench.Measure.sample) ->
            (not s.Pmc_bench.Measure.ok)
            || not s.Pmc_bench.Measure.deterministic)
          report.Pmc_bench.Report.samples
      then begin
        Fmt.epr "run: checksum or determinism failure (see report)@.";
        3
      end
      else 0

(* ---------------- compare ---------------- *)

let compare base_path cur_path tolerance_spec no_rate_gate subset =
  let tolerances =
    match tolerance_spec with
    | None -> Pmc_bench.Compare.default_tolerances
    | Some spec -> (
        try Pmc_bench.Compare.parse_tolerance_overrides spec
        with Invalid_argument msg -> Cli.fail "bad --tolerance: %s" msg)
  in
  let base = load_report base_path in
  let cur = load_report cur_path in
  let outcome =
    Pmc_bench.Compare.run ~tolerances ~gate_rate:(not no_rate_gate) ~subset
      ~base ~cur ()
  in
  Fmt.pr "%a" Pmc_bench.Compare.pp outcome;
  if Pmc_bench.Compare.ok outcome then 0 else 1

let cmd =
  Cli.group "bench" ~doc:"Benchmark regression harness for the PMC simulator"
    ~man:
      [
        `S Manpage.s_description;
        `P
          "Runs registered PMC applications across memory-architecture \
           back-ends on the simulated SoC, records architectural metrics \
           (cycles, NoC flits, cache maintenance, lock handovers) in \
           schema-versioned JSON reports, and diffs reports against \
           per-metric tolerances so CI can reject performance regressions.";
      ]
    [
      Cli.cmd "run" ~doc:"Measure a benchmark suite and emit a JSON report"
        Term.(
          const run $ Cli.suite $ Cli.label $ Cli.output $ Cli.unbatched
          $ Cli.warmup 1 $ Cli.repeat 3 $ Cli.apps $ Cli.topology_override
          $ Cli.cores_override
          $ Cli.jobs ~action:"Measure cases"
          $ Cli.quiet ~doc:"Only write the report.");
      Cli.cmd "compare"
        ~doc:"Diff two reports against per-metric tolerances (the CI gate)"
        Term.(
          const compare
          $ Cli.report_pos 0 "BASELINE"
              ~doc:"Baseline report (e.g. the committed BENCH_BASELINE.json)."
          $ Cli.report_pos 1 "CURRENT" ~doc:"Report to gate."
          $ Cli.tolerance $ Cli.no_rate_gate $ Cli.subset);
    ]
