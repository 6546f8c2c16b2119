(* pmc serve — persistent checking/simulation service with a verdict
   cache.

     pmc serve daemon --socket /tmp/pmc.sock --jobs 4
         serve litmus/check/bench/chaos/crash jobs over a Unix-domain socket,
         multiplexed onto a domain pool, with an LRU verdict cache;
     pmc serve submit litmus --program mp_fence --socket /tmp/pmc.sock
         one job over the socket, rendered exactly as the one-shot
         command would render it;
     pmc serve submit bench --app stencil --local
         the same job executed in-process (no daemon) — the comparator
         CI diffs daemon answers against;
     pmc serve stats --socket /tmp/pmc.sock
         queue depth, cache hit rate, pool width;
     pmc serve shutdown --socket /tmp/pmc.sock
         graceful drain: outstanding jobs finish, parked replies are
         delivered, then the daemon exits. *)

open Cmdliner
module Job = Pmc_jobs.Job
module Jresult = Pmc_jobs.Result
module Run = Pmc_jobs.Run
module Protocol = Pmc_serve.Protocol

(* ---------------- daemon ---------------- *)

let daemon socket jobs cache_capacity max_queue budget quiet =
  Pmc_par.Pool.with_pool ~jobs (fun pool ->
      let server =
        Pmc_serve.Server.create ~budget ~cache_capacity ~max_queue pool
      in
      if not quiet then
        Fmt.pr "pmc_serve: listening on %s (width %d, cache %d, queue %d)@."
          socket
          (Pmc_serve.Server.width server)
          cache_capacity max_queue;
      (try Pmc_serve.Daemon.serve ~socket_path:socket server
       with Unix.Unix_error (e, op, arg) ->
         Cli.fail "pmc_serve: %s %s: %s" op arg (Unix.error_message e));
      (if not quiet then
         let s = Pmc_serve.Server.stats server in
         Fmt.pr
           "pmc_serve: drained; %d jobs completed, %d rejected, %d/%d cache \
            hits@."
           s.Protocol.completed s.Protocol.rejected s.Protocol.cache_hits
           (s.Protocol.cache_hits + s.Protocol.cache_misses));
      0)

(* ---------------- client ---------------- *)

let unexpected () = Cli.fail "pmc_serve: unexpected response"

(* Run [job] locally or over the socket and render the result exactly
   as the corresponding one-shot command would; the exit code follows
   the job's verdict. *)
let submit socket local no_wait budget job =
  if local then Cli.run_local ~budget job
  else
    Pmc_serve.Client.with_connection socket @@ fun c ->
    match
      Pmc_serve.Client.request c
        (Protocol.Submit { job; budget; wait = not no_wait })
    with
    | Protocol.Submitted { id; cached } ->
        Fmt.pr "submitted %d%s@." id (if cached then " (cached)" else "");
        0
    | Protocol.Job_result { result; _ } ->
        Fmt.pr "%a" Jresult.pp result;
        (match result with
        | Jresult.Error e -> Fmt.epr "pmc_serve: %s@." e.Jresult.detail
        | _ -> ());
        Jresult.exit_code result
    | Protocol.Rejected { reason } -> Cli.fail "pmc_serve: rejected: %s" reason
    | Protocol.Protocol_error { reason } ->
        Cli.fail "pmc_serve: protocol error: %s" reason
    | _ -> unexpected ()

let stats socket json =
  Pmc_serve.Client.with_connection socket @@ fun c ->
  match Pmc_serve.Client.request c Protocol.Stats with
  | Protocol.Stats_reply s ->
      if json then
        Fmt.pr "%s@." (Pmc_bench.Json.to_compact (Protocol.stats_to_json s))
      else begin
        Fmt.pr "width:         %d@." s.Protocol.width;
        Fmt.pr "queue depth:   %d (%d running)@." s.Protocol.queue_depth
          s.Protocol.running;
        Fmt.pr "submitted:     %d@." s.Protocol.submitted;
        Fmt.pr "completed:     %d@." s.Protocol.completed;
        Fmt.pr "rejected:      %d@." s.Protocol.rejected;
        Fmt.pr "cache:         %d hits, %d misses, %d entries@."
          s.Protocol.cache_hits s.Protocol.cache_misses
          s.Protocol.cache_entries;
        if s.Protocol.draining then Fmt.pr "draining@."
      end;
      0
  | _ -> unexpected ()

let shutdown socket =
  let c =
    try Pmc_serve.Client.connect socket
    with Unix.Unix_error (e, _, _) ->
      Cli.fail "pmc_serve: cannot connect to %s: %s" socket
        (Unix.error_message e)
  in
  (match Pmc_serve.Client.request c Protocol.Shutdown with
  | Protocol.Shutdown_started { pending } ->
      Fmt.pr "shutting down; %d job(s) draining@." pending
  | _ -> unexpected ());
  Pmc_serve.Client.close c;
  0

(* ---------------- bench-client ---------------- *)

(* Load generator: submit a round-robin batch of litmus jobs in wait
   mode over one connection and report how many came from the verdict
   cache.  Repeat a run against a warm daemon and every request should
   be a hit. *)
let bench_client socket requests model =
  Pmc_serve.Client.with_connection socket @@ fun c ->
  let programs = Array.of_list Run.program_names in
  let fresh = ref 0 and cached = ref 0 and failed = ref 0 in
  let tickets = ref [] in
  for i = 0 to requests - 1 do
    let program = programs.(i mod Array.length programs) in
    let job =
      Job.Litmus { Job.program; models = [ model ]; limit = None }
    in
    match
      Pmc_serve.Client.request c
        (Protocol.Submit { job; budget = Run.no_budget; wait = false })
    with
    | Protocol.Submitted { id; cached = true } ->
        incr cached;
        tickets := id :: !tickets
    | Protocol.Submitted { id; cached = false } ->
        incr fresh;
        tickets := id :: !tickets
    | Protocol.Rejected { reason } ->
        incr failed;
        Fmt.epr "rejected: %s@." reason
    | _ -> incr failed
  done;
  (* collect every ticket so the daemon is warm and idle afterwards *)
  List.iter
    (fun id ->
      match
        Pmc_serve.Client.request c (Protocol.Result_of { id; wait = true })
      with
      | Protocol.Job_result _ -> ()
      | _ -> incr failed)
    (List.rev !tickets);
  Fmt.pr "%d requests: %d fresh, %d cached, %d failed@." requests !fresh
    !cached !failed;
  match Pmc_serve.Client.request c Protocol.Stats with
  | Protocol.Stats_reply s ->
      Fmt.pr "daemon: %d completed, %d/%d cache hits, queue depth %d@."
        s.Protocol.completed s.Protocol.cache_hits
        (s.Protocol.cache_hits + s.Protocol.cache_misses)
        s.Protocol.queue_depth;
      if !failed > 0 then 2 else 0
  | _ -> unexpected ()

let cmd =
  let submit_cmd name ~doc job =
    Cli.cmd name ~doc
      Term.(
        const submit $ Cli.socket $ Cli.local $ Cli.no_wait $ Cli.budget $ job)
  in
  Cli.group "serve"
    ~doc:"Persistent checking/simulation service with a verdict cache"
    [
      Cli.cmd "daemon"
        ~doc:"Serve jobs over a Unix-domain socket until shutdown"
        Term.(
          const daemon $ Cli.socket
          $ Cli.jobs ~action:"Run accepted jobs"
          $ Cli.cache_capacity $ Cli.max_queue $ Cli.budget
          $ Cli.quiet ~doc:"No startup banner.");
      Cli.group "submit"
        ~doc:
          "Submit one job (over the socket, or in-process with $(b,--local))"
        [
          submit_cmd "litmus" ~doc:"Submit a litmus enumeration job"
            Cli.litmus_job;
          submit_cmd "check" ~doc:"Submit a discipline-check job" Cli.check_job;
          submit_cmd "bench" ~doc:"Submit a benchmark case job" Cli.bench_job;
          submit_cmd "chaos" ~doc:"Submit a seeded chaos-run job" Cli.chaos_job;
          submit_cmd "crash" ~doc:"Submit a power-cut crash-recovery job"
            Cli.crash_job;
        ];
      Cli.cmd "stats" ~doc:"Query queue depth and cache hit rate"
        Term.(const stats $ Cli.socket $ Cli.json);
      Cli.cmd "shutdown" ~doc:"Gracefully drain and stop the daemon"
        Term.(const shutdown $ Cli.socket);
      Cli.cmd "bench-client"
        ~doc:"Hammer a daemon with litmus jobs and report the cache hit rate"
        Term.(const bench_client $ Cli.socket $ Cli.requests $ Cli.bench_model);
    ]
