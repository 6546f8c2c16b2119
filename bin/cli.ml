(* The command-line surface of the pmc executable, declared once: every
   argument of every subcommand, the job-shaped argument groups, name
   resolution and the exit-code table.

   A flag that several subcommands share has one declaration here; where
   its default, multiplicity or wording differs per subcommand, that is a
   parameter of the one definition.  Bad names and bad geometry exit 2 in
   every subcommand, and every --help documents the same exit codes. *)

open Cmdliner
module Job = Pmc_jobs.Job

(* ---------------- exit codes ---------------- *)

let exits =
  Cmd.Exit.info 1
    ~doc:
      "$(b,bench compare) found a regression: a gated metric exceeded its \
       tolerance, a case disappeared, or a current sample is broken."
  :: Cmd.Exit.info 2
       ~doc:
         "input error: an unknown app, back-end, fabric, suite, program or \
          model; bad geometry; an unreadable or unwritable file; an \
          exhausted budget; a typed runtime error (arena exhausted, \
          watchdog, deadlock); or a daemon rejection."
  :: Cmd.Exit.info 3
       ~doc:
         "property failure: a checksum mismatch, a data race, discipline \
          errors, a wrong result under faults, a torn object, a \
          nondeterministic benchmark case, or a disarmed fault plane that \
          is not free."
  :: Cmd.Exit.info 4
       ~doc:
         "the formal PMC model found a run, trace or durable prefix \
          inconsistent."
  :: Cmd.Exit.info 5
       ~doc:
         "inconclusive: a trace dropped events (raise \
          $(b,--trace-capacity)), or with $(b,--smoke) a passing run was \
          not model-checked."
  :: Cmd.Exit.defaults

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term
let group ?man name ~doc cmds = Cmd.group (Cmd.info ?man name ~doc ~exits) cmds

(* An input error: one line on stderr, exit 2. *)
let fail fmt =
  Format.kfprintf (fun _ -> exit 2) Format.err_formatter (fmt ^^ "@.")

(* ---------------- name resolution ---------------- *)

let find_app name =
  match Pmc_apps.Registry.find name with
  | Some a -> a
  | None ->
      fail "unknown app %S; one of: %s" name
        (String.concat ", " Pmc_apps.Registry.names)

let find_backend name =
  match Pmc.Backends.of_string name with
  | Some b -> b
  | None -> fail "unknown backend %S (seqcst|nocc|swcc|dsm|spm|farmem)" name

let find_topology name ~cores =
  match Pmc_sim.Topology.resolve name ~cores with
  | Ok t -> t
  | Error e -> fail "%s" e

(* The machine of a single run, with the job layer's geometry bounds. *)
let config ?(topology = "star") ~cores ~scale () =
  (match Pmc_jobs.Run.check_geometry ~cores ~scale with
  | Ok () -> ()
  | Error e -> fail "%s" e);
  { Pmc_sim.Config.default with
    cores; topology = find_topology topology ~cores }

(* ---------------- simulation geometry ---------------- *)

(* [-a] and [-n] are not short forms of every command's --app and --limit *)
let app_info ?(short = true) doc =
  Arg.info ("app" :: (if short then [ "a" ] else [])) ~docv:"NAME" ~doc

let app default =
  Arg.(value & opt string default & app_info "Application to run.")

let one_app =
  Arg.(
    value & opt (some string) None
    & app_info "Run a single application (default: every one).")

let apps =
  Arg.(
    value & opt_all string []
    & app_info ~short:false
        "Keep only the suite's cases for application $(docv) (repeatable).  \
         Default: every case.")

let backend ?(doc = "Memory architecture: seqcst, nocc, swcc, dsm, spm or \
                     farmem.") default =
  Arg.(value & opt string default & info [ "backend"; "b" ] ~docv:"NAME" ~doc)

let cores_info doc = Arg.info [ "cores"; "c" ] ~docv:"N" ~doc
let cores default =
  Arg.(value & opt int default & cores_info "Number of tiles.")

let cores_override =
  Arg.(
    value & opt (some int) None
    & cores_info "Override every case's tile count.")

let scale default =
  Arg.(
    value & opt int default
    & info [ "scale"; "s" ] ~docv:"N" ~doc:"Workload scale.")

let topology_info doc = Arg.info [ "topology" ] ~docv:"FABRIC" ~doc

let topology =
  Arg.(
    value & opt string "star"
    & topology_info
        "Fabric the tiles are wired in: $(b,star) (uniform ring-distance \
         hops), $(b,mesh:XxY), $(b,torus:XxY) or $(b,hier:CxS) (C \
         clusters of S tiles around a hub ring).  Bare $(b,mesh), \
         $(b,torus) and $(b,hier) pick a near-square factorization of the \
         core count.")

let topology_override =
  Arg.(
    value & opt (some string) None
    & topology_info
        "Override every case's fabric: star, mesh[:XxY], torus[:XxY] or \
         hier[:CxS].  Bare names pick a near-square factorization of each \
         case's core count.")

(* ---------------- common ---------------- *)

let jobs ~action =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (action
         ^ " on $(docv) domains.  1 (the default) is the exact sequential \
            behaviour; 0 uses the recommended domain count.  Output is \
            identical at any width."))

let quiet ~doc = Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

(* ---------------- run / trace ---------------- *)

let list = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List apps.")

let breakdown =
  Arg.(value & flag & info [ "breakdown" ] ~doc:"Print the stall breakdown.")

let verify =
  Arg.(
    value & opt bool true
    & info [ "verify" ] ~doc:"Fail if the checksum mismatches.")

let trace =
  Arg.(
    value & opt (some string) None
    & info [ "trace"; "t" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON to $(docv) \
           (open in ui.perfetto.dev).")

let race_check =
  Arg.(
    value & flag
    & info [ "race-check" ]
        ~doc:
          "Record the run and check it for dynamic data races (exit 3 if \
           any are found).")

let model_check =
  Arg.(
    value & flag
    & info [ "model-check" ]
        ~doc:
          "Record the run and replay it through the formal PMC model's \
           history checker (exit 4 on violation).")

let trace_capacity =
  Arg.(
    value & opt (some int) None
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Per-core trace ring capacity (default 65536 events).")

let capacity =
  Arg.(
    value & opt (some int) None
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Per-core trace ring capacity (default 65536).")

let limit_info ?(short = true) doc =
  Arg.info ("limit" :: (if short then [ "n" ] else [])) ~docv:"N" ~doc

let event_limit =
  Arg.(value & opt int 200 & limit_info "Max events to print.")

(* ---------------- litmus / check ---------------- *)

let figures =
  Arg.(value & flag & info [ "figures" ] ~doc:"Print Fig. 2-5 graphs.")

let drf = Arg.(value & flag & info [ "drf" ] ~doc:"Data-race analysis.")
let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Fig. 5 as Graphviz dot.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print exploration statistics per (program, model) cell: states \
           explored, distinct packed keys, stuck states, host time and \
           states per second.  With $(b,--jobs) N the pool parallelizes \
           the frontier BFS inside each enumeration; all non-timing \
           columns are identical at any width.")

let program_info doc = Arg.info [ "program"; "p" ] ~docv:"NAME" ~doc

let programs =
  Arg.(
    value & opt_all string []
    & program_info
        "Enumerate only $(docv) (repeatable).  Slugs like $(b,mp_fence), \
         $(b,sb), $(b,iriw) or full descriptive names; default: every \
         standard program.")

let model_info doc = Arg.info [ "model"; "m" ] ~docv:"MODEL" ~doc

let table =
  Arg.(value & flag & info [ "table" ] ~doc:"Print lowering tables.")

let files =
  Arg.(
    value & opt_all string []
    & info [ "file"; "f" ] ~docv:"FILE"
        ~doc:
          "Check an annotated program file.  Repeatable; the batch is \
           checked in parallel under --jobs and reported in argument \
           order.")

(* ---------------- bench ---------------- *)

let suite =
  Arg.(
    value & opt string "smoke"
    & info [ "suite" ] ~docv:"NAME"
        ~doc:
          "Benchmark suite: $(b,smoke) (the CI gate), $(b,full), or \
           $(b,scale) (served-traffic apps on 256- and 1024-tile routed \
           fabrics).")

let label =
  Arg.(
    value & opt string "bench"
    & info [ "label" ] ~docv:"LABEL"
        ~doc:"Free-form tag recorded in the report header.")

let output =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON report to $(docv).")

let unbatched =
  Arg.(
    value & flag
    & info [ "unbatched" ]
        ~doc:
          "Run on the pre-batching cost model (multicast, lazy DSM \
           versioning and burst cache maintenance disabled) instead of \
           the default machine.")

let warmup default =
  Arg.(
    value & opt int default
    & info [ "warmup" ] ~docv:"N" ~doc:"Discarded runs before timing.")

let repeat default =
  Arg.(
    value & opt int default
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Timed runs per case.  Architectural metrics must be identical \
           across repeats (the simulator is deterministic); host time is \
           outlier-trimmed and averaged.")

let report_pos n docv ~doc =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let tolerance =
  Arg.(
    value & opt (some string) None
    & info [ "tolerance" ] ~docv:"SPEC"
        ~doc:
          "Override per-metric tolerances as fractional changes, e.g. \
           $(b,cycles=0.05,noc_flits=0.1).  Unnamed metrics keep their \
           defaults (cycles/noc_flits/flushes 2%, lock_transfers 10%).")

let no_rate_gate =
  Arg.(
    value & flag
    & info [ "no-rate-gate" ]
        ~doc:
          "Disable the host-speed rate gate (architectural metrics are \
           still gated).  For comparing two arms of the same run — the \
           $(b,--jobs) equality gates — where both arms shared the host \
           and their relative speed carries no signal.")

let subset =
  Arg.(
    value & flag
    & info [ "subset" ]
        ~doc:
          "Accept a current report that ran only a sub-suite of the \
           baseline: baseline cases absent from it are not counted \
           missing.  Lets the combined $(b,ci) baseline gate the \
           $(b,smoke) and $(b,check) suites separately.")

(* ---------------- chaos ---------------- *)

let seeds_info docv doc = Arg.info [ "seeds" ] ~docv ~doc

let seed_count =
  Arg.(
    value & opt int 10
    & seeds_info "N" "Fault schedules per app (the wall).")

let seed_range =
  Arg.(
    value & opt string "8"
    & seeds_info "N|A..B"
        "Power-cut seeds per app: a count N (from seed-base) or an \
         inclusive range A..B.")

let seed_base =
  Arg.(
    value & opt int 1
    & info [ "seed-base" ] ~docv:"S" ~doc:"First fault seed of the wall.")

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S"
        ~doc:"Fault schedule seed (for a crash job: the power-cut seed).")

let intensity =
  Arg.(
    value & opt float 1.0
    & info [ "intensity" ] ~docv:"X"
        ~doc:"Fault probability multiplier (1.0 = the standard mix).")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"CI geometry: three kernels, 4 cores, capped scale.")

let no_model_check =
  Arg.(
    value & flag
    & info [ "no-model-check" ]
        ~doc:
          "Skip the PMC model replay of completed runs (of the durable \
           prefix, for crash experiments).")

let replay_budget =
  Arg.(
    value & opt (some int) None
    & info [ "replay-budget" ] ~docv:"N"
        ~doc:
          "Skip the model replay for traces above N captured events \
           (default 100000 for chaos runs, 500000 for crash experiments).")

let window_info doc = Arg.info [ "window" ] ~docv:"CYCLES" ~doc

let window =
  Arg.(
    value & opt (some int) None
    & window_info
        "Cut window in cycles.  Default: each app's fault-free wall \
         clock, so the cut lands inside the run.")

let no_log =
  Arg.(
    value & flag
    & info [ "no-log" ]
        ~doc:
          "Disarm the redo log: exit_x publishes word by word, which a \
           mid-publication cut can tear — the negative control the \
           checker must catch.")

let crash_backend =
  backend ~doc:"Back-end to crash (only farmem has a durable tier)."
    "farmem"

let baseline =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Also replay this benchmark report's cases on a disarmed-chaos \
           machine and require exact metric equality.")

(* ---------------- serve ---------------- *)

let socket =
  Arg.(
    value
    & opt string "/tmp/pmc_serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let budget =
  let make max_cycles max_states = { Pmc_jobs.Run.max_cycles; max_states } in
  Term.(
    const make
    $ Arg.(
        value & opt (some int) None
        & info [ "max-cycles" ] ~docv:"N"
            ~doc:"Per-request simulated-cycle budget (tightens the watchdog).")
    $ Arg.(
        value & opt (some int) None
        & info [ "max-states" ] ~docv:"N"
            ~doc:"Per-request state budget for litmus enumeration."))

let cache_capacity =
  Arg.(
    value & opt int 256
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"LRU verdict cache capacity (entries).")

let max_queue =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission control: reject submissions beyond $(docv) \
           outstanding jobs.")

let local =
  Arg.(
    value & flag
    & info [ "local" ]
        ~doc:
          "Execute in-process instead of over the socket — the one-shot \
           comparator the daemon's answers are byte-identical to.")

let no_wait =
  Arg.(
    value & flag
    & info [ "no-wait" ]
        ~doc:"Print the job ticket instead of waiting for the result.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the stats object as JSON.")

let requests =
  Arg.(
    value & opt int 24
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Number of submissions.")

let bench_model =
  Arg.(
    value & opt string "pmc"
    & model_info "Model to enumerate on each request.")

(* ---------------- jobs ----------------

   One term per job kind.  A command that runs a job takes it from here,
   so the in-process CLI and the daemon submission of the same job parse
   the same flags with the same defaults.  [Term]'s own [app] would
   shadow the [app] argument, hence no [Term.( )] local opens here. *)

let ( $ ) = Term.( $ )

let litmus_job =
  let make program models limit = Job.Litmus { Job.program; models; limit } in
  Term.const make
  $ Arg.(
      required & opt (some string) None
      & program_info
          (Printf.sprintf "Litmus program; one of: %s."
             (String.concat ", " Pmc_jobs.Run.program_names)))
  $ Arg.(
      value & opt_all string []
      & model_info
          "Model to enumerate (repeatable; default all): sc, pc, cc, ec, \
           slow, pmc.")
  $ Arg.(
      value & opt (some int) None
      & limit_info ~short:false "State-space enumeration limit.")

let builtin_programs =
  [
    ("fig6", Pmc_compile.Ir.fig6);
    ("fig6_missing_fence", Pmc_compile.Ir.fig6_missing_fence);
  ]

let check_job =
  let make builtin file =
    let name, source =
      match (builtin, file) with
      | Some b, None -> (
          match List.assoc_opt b builtin_programs with
          | Some p -> (p.Pmc_compile.Ir.pname, Pmc_compile.Parse.print p)
          | None -> fail "unknown builtin %S (fig6|fig6_missing_fence)" b)
      | None, Some f -> (
          match In_channel.with_open_text f In_channel.input_all with
          | s -> (Filename.basename f, s)
          | exception Sys_error msg -> fail "cannot read %s: %s" f msg)
      | _ -> fail "exactly one of FILE or --builtin is required"
    in
    Job.Check { Job.name; source }
  in
  Term.const make
  $ Arg.(
      value & opt (some string) None
      & info [ "builtin" ] ~docv:"NAME"
          ~doc:"Check a built-in program: fig6 or fig6_missing_fence.")
  $ Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Annotated program file to check.")

let bench_job =
  let make app backend topology cores scale unbatched warmup repeat =
    Job.Bench
      { Job.app; backend; topology; cores; scale; unbatched; warmup; repeat }
  in
  Term.const make $ app "stencil" $ backend "dsm" $ topology $ cores 8
  $ scale 16 $ unbatched $ warmup 0 $ repeat 1

let chaos_job =
  let make c_app c_backend c_topology c_cores c_scale seed intensity
      no_model_check replay_budget =
    Job.Chaos
      { Job.c_app; c_backend; c_topology; c_cores; c_scale; seed; intensity;
        model_check = not no_model_check; replay_budget }
  in
  Term.const make $ app "stencil" $ backend "dsm" $ topology $ cores 8
  $ scale 16 $ seed $ intensity $ no_model_check $ replay_budget

let crash_job =
  let make x_app x_backend x_topology x_cores x_scale x_seed x_window no_log
      no_model_check x_replay_budget =
    Job.Crash
      { Job.x_app; x_backend; x_topology; x_cores; x_scale; x_seed; x_window;
        x_log = not no_log; x_model_check = not no_model_check;
        x_replay_budget }
  in
  Term.const make $ app "stencil" $ crash_backend $ topology $ cores 8
  $ scale 16 $ seed
  $ Arg.(
      required & opt (some int) None
      & window_info
          "Cut window in cycles.  Required: the cut cycle is a pure \
           function of (seed, window), so the job encoding — the \
           verdict-cache key — must carry it.")
  $ no_log $ no_model_check $ replay_budget

(* Run one job in-process and print it exactly as the daemon's answer is
   printed; the exit code follows the job's verdict. *)
let run_local ?budget job =
  let r = Pmc_jobs.Run.run ?budget job in
  Fmt.pr "%a" Pmc_jobs.Result.pp r;
  (match r with
  | Pmc_jobs.Result.Error e -> Fmt.epr "pmc: %s@." e.Pmc_jobs.Result.detail
  | _ -> ());
  Pmc_jobs.Result.exit_code r
