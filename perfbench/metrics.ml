(* Every metric the benchmark prints, with its unit.  BENCHMARK.json at
   the repository root lists the same names; run.py refuses a result
   whose names differ from it.

   A per-layer metric is measured on the untraced passes (U: host rates
   and allocation, which observers would distort, and exact counts),
   on the traced passes (T: span times and observer counts), or once
   per run (R: set-up and derived values). *)

type src = U | T | R

let end_to_end =
  [
    ("setup_s", "s");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MiB");
    ("pass_s", "s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
  ]

let stall_names =
  [ "busy"; "private_read"; "shared_read"; "write"; "icache"; "lock"; "flush" ]

let per_layer =
  [
    (* sim: the simulator, driven through Runner.run *)
    ("sim_cycles", "cycles", U);
    ("utilization", "ratio", U);
    ("sim_cycles_per_s", "cycles/s", U);
    ("req_p99_cycles", "cycles", U);
    ("sim.run_s", "s", T);
    ("sim.host_ns_per_cycle", "ns/cycle", U);
    ("sim.minor_words_per_cycle", "words/cycle", U);
  ]
  @ List.map (fun s -> ("sim.stall." ^ s, "cycles", U)) stall_names
  @ [
      ("sim.instructions", "count", U);
      ("sim.dcache_hits", "count", U);
      ("sim.dcache_misses", "count", U);
      ("sim.dcache_hit_ratio", "ratio", U);
      ("sim.icache_misses", "count", U);
      ("sim.cache.maint_ops", "count", T);
      ("sim.cache.lines_touched", "count", T);
      ("sim.cache.lines_written_back", "count", T);
      ("sim.cache.writeback_ratio", "ratio", T);
      ("sim.noc.writes", "count", U);
      ("sim.noc.flits", "count", U);
      ("sim.noc.posts", "count", T);
      ("sim.noc.bytes", "bytes", T);
      ("sim.tasks", "count", T);
      (* core: annotation runtime, counted through Api.set_trace *)
      ("core.entry_x", "count", T);
      ("core.exit_x", "count", T);
      ("core.entry_ro", "count", T);
      ("core.exit_ro", "count", T);
      ("core.fence", "count", T);
      ("core.flush", "count", T);
      ("core.reads", "count", T);
      ("core.writes", "count", T);
      (* lock *)
      ("lock.acquires", "count", U);
      ("lock.transfers", "count", U);
      ("lock.transfer_ratio", "ratio", U);
      ("lock.ops", "count", T);
      (* apps: served-traffic request stream *)
      ("apps.requests", "count", U);
      ("apps.req_p50_cycles", "cycles", U);
      ("apps.req_p999_cycles", "cycles", U);
      ("apps.req_per_kcycle", "1/kcycle", U);
      (* trace: recorder, race checker, lowering *)
      ("trace_to_verdict_s", "s", U);
      ("trace.record_s", "s", T);
      ("trace.events", "count", U);
      ("trace.dropped", "count", U);
      ("trace.racecheck_s", "s", T);
      ("trace.races", "count", U);
      ("trace.lower_s", "s", T);
      ("trace.skipped", "count", U);
      (* model: history checker and litmus enumerator *)
      ("model.history_s", "s", T);
      ("model.history_events", "count", U);
      ("model.history_locs", "count", U);
      ("model.history_events_per_s", "events/s", T);
      ("model.history_share", "ratio", T);
      ("model.history_violations", "count", U);
      ("model.history_minor_words", "words", U);
      ("litmus_states_per_s", "states/s", U);
      ("model.enum_s", "s", T);
      ("model.enum_cells", "count", U);
      ("model.enum_states", "count", U);
      ("model.enum_stuck", "count", U);
      ("model.enum_states_per_s", "states/s", T);
      (* jobs: local Run.run of each served job, timed in set-up *)
      ("jobs.run_ms.litmus", "ms", R);
      ("jobs.run_ms.check", "ms", R);
      ("jobs.run_ms.bench", "ms", R);
      (* serve: daemon round trips *)
      ("rtt_p50_ms", "ms", U);
      ("rtt_p99_ms", "ms", U);
      ("jobs_per_s", "jobs/s", U);
      ("serve.cache_hits", "count", U);
      ("serve.cache_misses", "count", U);
      ("serve.cache_hit_ratio", "ratio", U);
      ("serve.cache_entries", "count", U);
      ("serve.rejected", "count", U);
      ("serve.rtt_p50_ms.hit", "ms", U);
      ("serve.rtt_p50_ms.miss", "ms", U);
      ("serve.overhead_ms", "ms", U);
      ("serve.codec_us", "us", T);
      (* host GC, per pass *)
      ("gc.minor_words", "words", U);
      ("gc.major_collections", "count", U);
      (* span self time per pass, by layer *)
      ("bench.self_s", "s", R);
      ("sim.self_s", "s", R);
      ("trace.self_s", "s", R);
      ("model.self_s", "s", R);
      ("jobs.self_s", "s", R);
      ("serve.self_s", "s", R);
      (* host speed: the calibration kernel's median time, and pass_s
         before scaling by it *)
      ("host.calib_ms", "ms", R);
      ("host.raw_pass_s", "s", R);
      (* tracing overhead: traced minus untraced end-to-end value *)
      ("overhead.pass_s", "s", R);
      ("overhead.op_p50_ms", "ms", R);
      ("overhead.op_p99_ms", "ms", R);
      ("ops.samples", "count", R);
    ]

let layers = [ "bench"; "sim"; "trace"; "model"; "jobs"; "serve" ]
