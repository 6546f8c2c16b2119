(* serve: a closed loop of Submit{wait=true} requests from one client
   over one connection to a pmc_serve daemon of pool width 1 running in
   a child process.  The client sends its next request only after the
   reply, so the daemon sees the request stream in order and its
   verdict-cache hits are an exact function of the stream.

   Each pass starts a fresh daemon (so its verdict cache starts empty),
   replays the seed's request stream, checks the daemon's cache counts
   and shuts it down.  Every reply must equal, byte for byte in its
   canonical JSON, the local Run.run of the same job computed in
   set-up. *)

open Perfbench_util
open Common
module Job = Pmc_jobs.Job
module Run = Pmc_jobs.Run
module Jresult = Pmc_jobs.Result
module Json = Pmc_bench.Json
module Protocol = Pmc_serve.Protocol
module Client = Pmc_serve.Client

(* The key set: 512 jobs, twice the daemon's 256-entry verdict cache. *)
let litmus_blocks = 35  (* each block holds every program below once *)
let bench_blocks = 8  (* each block holds every app below once *)
let check_keys = 55
let cache_capacity = 256  (* the daemon's default *)
let requests_per_pass = 2048
let calib_every = 128  (* requests between calibration samples *)
let theta = 0.99

(* ---------- inputs ----------

   Job costs differ by two orders of magnitude between kinds and
   programs, so the keys are laid out over the Zipf ranks in blocks:
   every stretch of ranks holds the same mix of kinds and programs.
   The set of litmus and bench jobs and their order in each block are
   fixed; the seed assigns each program's model subsets and each app's
   bench points to the blocks and writes the check programs, so it
   changes which request is expensive but hardly how many are, nor what
   the popular requests cost.  The 2+2W program is left out:
   one job of it costs up to 130 ms against at most 30 ms for any
   other, so a handful of its misses would decide a pass's time (the
   verify workload enumerates it under every model). *)

let litmus_programs =
  List.filter (fun p -> p <> "coherence_2w") Run.program_names

(* Block [b] lists the programs (or apps) rotated by [b] places. *)
let rotate a b =
  let n = Array.length a in
  Array.init n (fun i -> a.((i + b) mod n))

(* Every program is submitted with each of the 35 subsets of three or
   four of the six models, one subset per block. *)
let litmus_jobs rng =
  let models = Array.of_list Run.model_names in
  let popcount m = List.length (List.filter (fun i -> m land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5 ]) in
  let masks =
    List.filter (fun m -> popcount m = 3 || popcount m = 4) (List.init 64 Fun.id)
  in
  assert (List.length masks = litmus_blocks);
  let subsets =
    List.map
      (fun p ->
        let a = Array.of_list masks in
        Rng.shuffle rng a;
        (p, a))
      litmus_programs
  in
  List.concat
    (List.init litmus_blocks (fun b ->
         let block = rotate (Array.of_list litmus_programs) b in
         Array.to_list
           (Array.map
              (fun program ->
                let mask = (List.assoc program subsets).(b) in
                let models =
                  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list models)
                in
                Job.Litmus { Job.program; models; limit = None })
              block)))

(* A disciplined annotated program in pmc_check's syntax: every access
   sits in an entry/exit scope of its object. *)
let check_source rng i =
  let objs = 2 + Rng.int rng 3 in
  let b = Buffer.create 512 in
  let add fmt = Printf.bprintf b fmt in
  add "program gen%d\n" i;
  for o = 0 to objs - 1 do
    add "obj o%d %d\n" o (4 * (1 + Rng.int rng 4))
  done;
  for _ = 1 to 2 + Rng.int rng 3 do
    add "thread\n";
    for _ = 1 to 2 + Rng.int rng 5 do
      let o = Rng.int rng objs in
      match Rng.int rng 5 with
      | 0 | 1 ->
          add "  entry_x o%d\n" o;
          for _ = 0 to Rng.int rng 3 do
            add (if Rng.int rng 2 = 0 then "  write o%d\n" else "  read o%d\n") o
          done;
          if Rng.int rng 2 = 0 then add "  fence\n";
          if Rng.int rng 3 = 0 then add "  flush o%d\n" o;
          add "  exit_x o%d\n" o
      | 2 -> add "  entry_ro o%d\n  read o%d\n  exit_ro o%d\n" o o o
      | 3 ->
          add "  loop %d\n    entry_ro o%d\n    read o%d\n    exit_ro o%d\n  end\n  fence\n"
            (1 + Rng.int rng 3) o o o
      | _ -> add "  compute %d\n" (1 + Rng.int rng 50)
    done
  done;
  Job.Check { Job.name = Printf.sprintf "gen%d.pmc" i; source = Buffer.contents b }

let bench_apps =
  [| "raytrace"; "volrend"; "radiosity"; "streaming"; "stencil"; "histogram";
     "reduce"; "kv_store"; "mailbox" |]

(* Every app runs with each of these (backend, cores, scale) points,
   one per block. *)
let bench_points =
  [ ("seqcst", 4, 4); ("nocc", 4, 4); ("swcc", 4, 4); ("dsm", 4, 4); ("spm", 4, 4);
    ("nocc", 8, 8); ("swcc", 8, 8); ("dsm", 8, 8) ]

let bench_jobs rng =
  assert (List.length bench_points = bench_blocks);
  let points =
    Array.map
      (fun app ->
        let a = Array.of_list bench_points in
        Rng.shuffle rng a;
        (app, a))
      bench_apps
  in
  List.concat
    (List.init bench_blocks (fun b ->
         let block = rotate points b in
         Array.to_list
           (Array.map
              (fun (app, pts) ->
                let backend, cores, scale = pts.(b) in
                Job.Bench
                  { Job.app; backend; topology = "star"; cores; scale; unbatched = false;
                    warmup = 0; repeat = 1 })
              block)))

(* Interleave the kinds evenly over the ranks: the j-th of n keys of a
   kind sits at (j + 1/2) / n. *)
let by_rank kinds =
  List.concat_map
    (fun (k, jobs) ->
      let n = float_of_int (List.length jobs) in
      List.mapi (fun j job -> ((float_of_int j +. 0.5) /. n, k, job)) jobs)
    (List.mapi (fun k jobs -> (k, jobs)) kinds)
  |> List.sort (fun (p, k, _) (q, l, _) -> compare (p, k) (q, l))
  |> List.map (fun (_, _, job) -> job)
  |> Array.of_list

(* ---------- the daemon child ---------- *)

let daemon_main socket_path =
  Pmc_par.Pool.with_pool ~jobs:1 (fun pool ->
      Pmc_serve.Daemon.serve ~socket_path (Pmc_serve.Server.create pool));
  exit 0

type daemon = { pid : int; socket : string; mutable reaped : bool }

let start_daemon () =
  mkdir_p out_dir;
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Sys.remove socket with Sys_error _ -> ());
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-daemon"; socket |]
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  let d = { pid; socket; reaped = false } in
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            d.reaped <- true;
            failwith "serve: daemon exited during start-up");
        if now () > deadline then failwith "serve: daemon did not start";
        Unix.sleepf 0.002;
        wait ()
  in
  (d, wait ())

let reap d =
  if not d.reaped then begin
    ignore (Unix.waitpid [] d.pid);
    d.reaped <- true
  end

let kill d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d
  end

(* Graceful stop: the daemon drains, replies, unlinks its socket and
   exits; we wait for it. *)
let stop_daemon d c =
  (match Client.request c Protocol.Shutdown with
  | Protocol.Shutdown_started _ -> ()
  | _ -> failwith "serve: unexpected reply to shutdown");
  Client.close c;
  reap d

(* ---------- workload ---------- *)

type kind = Litmus | Check | Bench

let kind_of = function
  | Job.Litmus _ -> Litmus
  | Job.Check _ -> Check
  | _ -> Bench

(* Which requests of the stream hit the daemon's LRU verdict cache:
   with one connection the daemon sees the stream in order, so this is
   exact, and the daemon's own counts must agree. *)
let expected_hits stream =
  let cache = Hashtbl.create cache_capacity and tick = ref 0 in
  Array.map
    (fun k ->
      incr tick;
      let hit = Hashtbl.mem cache k in
      Hashtbl.replace cache k !tick;
      if Hashtbl.length cache > cache_capacity then begin
        let victim, _ =
          Hashtbl.fold
            (fun k t (bk, bt) -> if t < bt then (k, t) else (bk, bt))
            cache (-1, max_int)
        in
        Hashtbl.remove cache victim
      end;
      hit)
    stream

type ctx = {
  jobs : Job.t array;  (** the key set *)
  expected : string array;  (** canonical JSON of each job's local result *)
  local_ms : float array;
  stream : int array;  (** key index of each request of a pass *)
  hits : bool array;  (** which requests of the stream hit the cache *)
  mutable peak_rss : float list;  (** each pass's daemon *)
  run_ms : (string * float) list;
}

let encode r = Json.to_compact (Jresult.to_json r)

let setup ~seed spans =
  let rng = Rng.create (Rng.derive ~seed "serve.keys") in
  (* jobs.(r) is the key of Zipf rank r *)
  let jobs =
    by_rank
      [ litmus_jobs rng; List.init check_keys (check_source rng); bench_jobs rng ]
  in
  (* Every seed requests each rank the same number of times, in the
     same order, and every key at least once, so each pass pays every
     job's run time once plus the re-runs its evictions cause, and the
     evictions fall on the same ranks; the seed decides which job sits
     at each rank.  Independent draws made the number of expensive
     misses depend on the seed; a seeded order of the same ranks still
     moved the re-run work by up to 6 % either way between seeds
     (summed over the misses of an LRU replay, each job at its measured
     local run time), against 1.5 % with one order. *)
  let zipf = Zipf.create ~n:(Array.length jobs) ~theta in
  let stream =
    Zipf.stream zipf (Rng.create (Rng.derive ~seed:0 "serve.stream"))
      ~total:requests_per_pass ~min_each:1
  in
  let local_ms = Array.make (Array.length jobs) 0.0 in
  let expected =
    Array.mapi
      (fun i job ->
        let t0 = now () in
        let r =
          Span.record spans ~layer:"jobs" ~name:("Run.run " ^ Job.kind_name job)
            (fun _ -> Run.run job)
        in
        local_ms.(i) <- ms_of_s (now () -. t0);
        (match r with
        | Jresult.Error e ->
            failwith (Printf.sprintf "serve: job %d fails locally: %s" i e.detail)
        | _ -> ());
        encode r)
      jobs
  in
  let median_kind k =
    let l = ref [] in
    Array.iteri (fun i j -> if kind_of j = k then l := local_ms.(i) :: !l) jobs;
    Pct.median (Array.of_list !l)
  in
  (* warm-up: one daemon round trip of each kind *)
  let d, c = start_daemon () in
  Fun.protect ~finally:(fun () -> kill d) (fun () ->
      List.iter
        (fun k ->
          let i = ref 0 in
          while kind_of jobs.(!i) <> k do incr i done;
          ignore
            (Client.request c
               (Protocol.Submit { job = jobs.(!i); budget = Run.no_budget; wait = true })))
        [ Litmus; Check; Bench ];
      stop_daemon d c);
  {
    jobs;
    expected;
    local_ms;
    stream;
    hits = expected_hits stream;
    peak_rss = [];
    run_ms =
      [
        ("jobs.run_ms.litmus", median_kind Litmus);
        ("jobs.run_ms.check", median_kind Check);
        ("jobs.run_ms.bench", median_kind Bench);
      ];
  }

let pass ctx spans ~calib ~root =
  let n = Array.length ctx.stream in
  let d, c = start_daemon () in
  Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
  let failed = ref 0 in
  let codec_us = ref [] in
  let t_start = now () and calib_s = ref 0.0 in
  let calib_at = Array.make n 0 in
  let rtt =
    Array.mapi
      (fun i k ->
        if i mod calib_every = 0 then begin
          let c0 = now () in
          Calib.sample calib;
          calib_s := !calib_s +. (now () -. c0)
        end;
        calib_at.(i) <- Calib.count calib;
        let req =
          Protocol.Submit { job = ctx.jobs.(k); budget = Run.no_budget; wait = true }
        in
        Span.record spans ~parent:root ~group:i ~layer:"bench" ~name:"request"
          (fun rid ->
            let t0 = now () in
            let resp =
              Span.record spans ~parent:rid ~group:i ~layer:"serve"
                ~name:"Client.request" (fun _ -> Client.request c req)
            in
            let rtt_ms = ms_of_s (now () -. t0) in
            (match resp with
            | Protocol.Job_result { result; _ } when encode result = ctx.expected.(k) -> ()
            | _ ->
                Printf.eprintf "perfbench: serve: request %d: reply differs from local run\n%!" i;
                incr failed);
            if Span.enabled spans then
              Span.record spans ~parent:rid ~group:i ~layer:"serve" ~name:"Protocol codec"
                (fun _ ->
                  let t0 = now () in
                  ignore (Protocol.response_of_line (Protocol.response_to_line resp));
                  codec_us := ((now () -. t0) *. 1e6) :: !codec_us);
            rtt_ms))
      ctx.stream
  in
  let elapsed = now () -. t_start -. !calib_s in
  let stats =
    match Client.request c Protocol.Stats with
    | Protocol.Stats_reply s -> s
    | _ -> failwith "serve: unexpected reply to stats"
  in
  ctx.peak_rss <- vm_hwm_mb (Some d.pid) :: ctx.peak_rss;
  stop_daemon d c;
  let hits = ctx.hits in
  let n_hits = Array.fold_left (fun a h -> if h then a + 1 else a) 0 hits in
  if stats.cache_hits <> n_hits || stats.rejected <> 0 then begin
    Printf.eprintf "perfbench: serve: daemon reports %d hits and %d rejections, expected %d and 0\n%!"
      stats.cache_hits stats.rejected n_hits;
    incr failed
  end;
  let split want =
    let l = ref [] in
    Array.iteri (fun i r -> if hits.(i) = want then l := r :: !l) rtt;
    Array.of_list !l
  in
  let med a = if Array.length a = 0 then 0.0 else Pct.median a in
  let overhead =
    let l = ref [] in
    Array.iteri
      (fun i r -> if not hits.(i) then l := (r -. ctx.local_ms.(ctx.stream.(i))) :: !l)
      rtt;
    med (Array.of_list !l)
  in
  let fi = float_of_int in
  let exact =
    Printf.sprintf "hits=%d misses=%d entries=%d replies=%s\n" stats.cache_hits
      stats.cache_misses stats.cache_entries
      (Fnv.hex
         (Array.fold_left
            (fun h k -> Fnv.add (Fnv.add h (Job.key ctx.jobs.(k))) ctx.expected.(k))
            Fnv.offset ctx.stream))
  in
  let metrics =
    if Span.enabled spans then
      [ ("serve.codec_us", Pct.median (Array.of_list !codec_us)) ]
    else
      [
        ("rtt_p50_ms", Pct.median rtt);
        ("rtt_p99_ms", Pct.nearest_rank rtt ~p:99.0);
        ("jobs_per_s", fi n /. elapsed);
        ("serve.cache_hits", fi stats.cache_hits);
        ("serve.cache_misses", fi stats.cache_misses);
        ("serve.cache_hit_ratio",
          ratio (fi stats.cache_hits) (fi (stats.cache_hits + stats.cache_misses)));
        ("serve.cache_entries", fi stats.cache_entries);
        ("serve.rejected", fi stats.rejected);
        ("serve.rtt_p50_ms.hit", med (split true));
        ("serve.rtt_p50_ms.miss", med (split false));
        ("serve.overhead_ms", overhead);
      ]
  in
  {
    ops_ms = Array.to_list rtt;
    calib_at = Array.to_list calib_at;
    attempted = n + 1;
    failed = !failed;
    exact;
    metrics;
  }

(* Round trips spend part of their time in the operating system
   (socket wake-ups, process switches), which the host's drift slows
   less than it slows the calibration kernel: over 20 passes of one
   run, log pass time followed log kernel time with slope 0.58
   (correlation 0.94). *)
let calib_elasticity = 0.6

let run_metrics ctx = ctx.run_ms
(* The median of the pass daemons' peaks: they differ by up to 8 MiB
   from one daemon to the next, so the largest would be decided by
   chance. *)
let peak_rss_mb ctx = Pct.median (Array.of_list ctx.peak_rss)
