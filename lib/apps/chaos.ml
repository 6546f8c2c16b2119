(* Chaos soak harness: run registered applications under seeded fault
   schedules and hold them to a hard contract — a run may complete with
   the right answer, or it may fail with a *typed* error, but it must
   never finish with a silently wrong answer or a trace the PMC model
   cannot explain.

   Each run arms the fault plane with [Config.chaos ~seed], records the
   full trace, and on completion (a) checks the app checksum against its
   sequential reference and (b) replays the trace through the formal
   model ([Pmc_model.History] via [Pmc_trace.Replay]).  The fault plane
   is deterministic, so every verdict is reproducible from
   (app, backend, cores, scale, seed, intensity) alone. *)

open Pmc_sim

type verdict =
  | Completed
      (* checksum matched and (when the trace was complete) the model
         replay found the run PMC-consistent *)
  | Typed_error of string
      (* the run died with a typed, attributable error — acceptable
         under injected faults *)
  | Wrong_result of { checksum : int64; reference : int64 }
  | Inconsistent of int  (* model replay violations: never acceptable *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  intensity : float;
  verdict : verdict;
  wall : int;
  faults : Fault.counts;  (* snapshot of the run's fault counters *)
  events : int;           (* trace events captured *)
  dropped : int;          (* trace events lost to ring overflow *)
  replayed : bool;        (* model replay ran (complete trace only) *)
}

(* A soak accepts completed-correct and typed-error runs; silent wrong
   answers and model-inconsistent runs fail it. *)
let acceptable = function
  | Completed | Typed_error _ -> true
  | Wrong_result _ | Inconsistent _ -> false

let total_injected (c : Fault.counts) =
  c.Fault.noc_drops + c.Fault.noc_corrupts + c.Fault.noc_delays
  + c.Fault.sdram_retries + c.Fault.tile_stalls + c.Fault.power_cuts

let run_one ?(intensity = 1.0) ?max_cycles ?(topology = Topology.Star)
    (a : Runner.app) ~backend ~cores ~scale ~seed : report =
  let cfg =
    Config.chaos ~intensity ~seed { Config.default with cores; topology }
  in
  let cfg =
    (* a per-request budget only ever tightens the livelock watchdog *)
    match max_cycles with
    | None -> cfg
    | Some m -> { cfg with Config.max_cycles = min m cfg.Config.max_cycles }
  in
  let outcome, rec_ = Runner.run_traced ~cfg a ~backend ~scale in
  let dropped = Pmc_trace.Recorder.dropped_total rec_ in
  let finish verdict ~replayed =
    let m = Pmc.Api.machine (Pmc_trace.Recorder.api rec_) in
    {
      app = a.Runner.name; backend; cores; scale; seed; intensity; verdict;
      wall = Engine.wall_time (Machine.engine m);
      faults =
        (* a snapshot, not an alias of the machine's live counters *)
        (let c = Fault.counts (Machine.fault m) in
         { c with Fault.noc_drops = c.Fault.noc_drops });
      events = Pmc_trace.Recorder.recorded rec_;
      dropped; replayed;
    }
  in
  match outcome with
  | Error stop ->
      (* a soak config that also arms the power-cut tag loses the run at
         the cut; the crash checker ([Crash]) is the harness that judges
         what the cut left behind *)
      finish (Typed_error (Runner.stop_to_string stop)) ~replayed:false
  | Ok r when not (Runner.ok r) ->
      finish
        (Wrong_result
           { checksum = r.Runner.checksum; reference = r.Runner.reference })
        ~replayed:false
  | Ok _ -> (
      match
        Pmc_trace.Replay.verdict Pmc_trace.Replay.Model ~cores ~dropped
          (Pmc_trace.Recorder.events rec_)
      with
      | Pmc_trace.Replay.Consistent -> finish Completed ~replayed:true
      | Pmc_trace.Replay.Violations vs ->
          finish (Inconsistent (List.length vs)) ~replayed:true
      | Pmc_trace.Replay.Inconclusive _ ->
          (* a lossy trace cannot be judged: see [unjudged] *)
          finish Completed ~replayed:false)

(* The one rule for a run that could not be judged: it completed with
   the right checksum, but its trace overflowed a ring, so the model
   never saw it.  Such a run neither passes nor fails — it exits 5. *)
let unjudged r = r.verdict = Completed && not r.replayed

(* ---------------- soak summaries ---------------- *)

type soak = {
  reports : report list;  (* in run order *)
  total : int;
  completed : int;
  typed_errors : int;
  failed : int;           (* wrong results + inconsistent replays *)
  injected : int;         (* faults injected across all runs *)
  unchecked : int;        (* unjudged runs *)
}

(* The verdict totals of a report list. *)
let summarize (reports : report list) : soak =
  let count p = List.length (List.filter p reports) in
  {
    reports;
    total = List.length reports;
    completed = count (fun r -> r.verdict = Completed);
    typed_errors =
      count (fun r -> match r.verdict with Typed_error _ -> true | _ -> false);
    failed = count (fun r -> not (acceptable r.verdict));
    injected =
      List.fold_left (fun acc r -> acc + total_injected r.faults) 0 reports;
    unchecked = count unjudged;
  }

(* ---------------- zero-cost-when-off identity ---------------- *)

type identity = { identical : bool; detail : string }

(* The bit-identical baseline invariant: a machine whose chaos schedule
   is armed and then disarmed ([Config.no_faults (Config.chaos ...)])
   must produce exactly the run of the never-armed machine — same wall
   clock, same checksum, same per-category cycle accounts. *)
let zero_cost_identity (a : Runner.app) ~backend ~cores ~scale ~seed :
    identity =
  let base_cfg = { Config.default with cores } in
  let disarmed = Config.no_faults (Config.chaos ~seed base_cfg) in
  let base = Runner.run ~cfg:base_cfg a ~backend ~scale in
  let dis = Runner.run ~cfg:disarmed a ~backend ~scale in
  if
    base.Runner.wall = dis.Runner.wall
    && base.Runner.checksum = dis.Runner.checksum
    && base.Runner.summary = dis.Runner.summary
  then { identical = true; detail = "" }
  else
    {
      identical = false;
      detail =
        Printf.sprintf
          "wall %d vs %d, checksum %Ld vs %Ld, summaries %s"
          base.Runner.wall dis.Runner.wall base.Runner.checksum
          dis.Runner.checksum
          (if base.Runner.summary = dis.Runner.summary then "equal"
           else "differ");
    }

(* ---------------- printing ---------------- *)

let pp_verdict ppf = function
  | Completed -> Fmt.pf ppf "completed"
  | Typed_error msg -> Fmt.pf ppf "typed error: %s" msg
  | Wrong_result { checksum; reference } ->
      Fmt.pf ppf "WRONG RESULT: checksum %Ld, expected %Ld" checksum reference
  | Inconsistent n -> Fmt.pf ppf "INCONSISTENT: %d model violation(s)" n

let pp_counts ppf (c : Fault.counts) =
  Fmt.pf ppf
    "drops=%d corrupts=%d delays=%d retries=%d dead=%d relayed=%d \
     sdram=%d stalls=%d lock_to=%d"
    c.Fault.noc_drops c.Fault.noc_corrupts c.Fault.noc_delays
    c.Fault.noc_retries c.Fault.links_dead c.Fault.relay_deliveries
    c.Fault.sdram_retries c.Fault.tile_stalls c.Fault.lock_timeouts

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-12s %-5s seed=%-5d wall=%-10d %a [%a]%s" r.app
    (Pmc.Backends.to_string r.backend)
    r.seed r.wall pp_verdict r.verdict pp_counts r.faults
    (if r.replayed then " replay=ok" else "")

let pp_soak ppf (s : soak) =
  Fmt.pf ppf
    "%d runs: %d completed, %d typed errors, %d failures; %d faults \
     injected; %d completed runs not model-checked"
    s.total s.completed s.typed_errors s.failed s.injected s.unchecked

(* Per-tag injection summary: how often each fault tag consulted the
   hash stream (draws) and how often it fired (hits) — the at-a-glance
   answer to "did this soak actually exercise tag X?". *)
let pp_tag_summary ppf (c : Fault.counts) =
  let noc_hits =
    c.Fault.noc_drops + c.Fault.noc_corrupts + c.Fault.noc_delays
  in
  Fmt.pf ppf
    "fault tags (hits/draws): noc %d/%d, sdram %d/%d, stall %d/%d, \
     power-cut %d/%d"
    noc_hits c.Fault.noc_draws c.Fault.sdram_retries c.Fault.sdram_draws
    c.Fault.tile_stalls c.Fault.stall_draws c.Fault.power_cuts
    c.Fault.power_cut_draws

let soak_counts (s : soak) : Fault.counts =
  let sum f = List.fold_left (fun acc r -> acc + f r.faults) 0 s.reports in
  {
    Fault.noc_drops = sum (fun c -> c.Fault.noc_drops);
    noc_corrupts = sum (fun c -> c.Fault.noc_corrupts);
    noc_delays = sum (fun c -> c.Fault.noc_delays);
    noc_retries = sum (fun c -> c.Fault.noc_retries);
    links_dead = sum (fun c -> c.Fault.links_dead);
    relay_deliveries = sum (fun c -> c.Fault.relay_deliveries);
    sdram_retries = sum (fun c -> c.Fault.sdram_retries);
    tile_stalls = sum (fun c -> c.Fault.tile_stalls);
    stall_cycles = sum (fun c -> c.Fault.stall_cycles);
    lock_timeouts = sum (fun c -> c.Fault.lock_timeouts);
    noc_draws = sum (fun c -> c.Fault.noc_draws);
    sdram_draws = sum (fun c -> c.Fault.sdram_draws);
    stall_draws = sum (fun c -> c.Fault.stall_draws);
    power_cut_draws = sum (fun c -> c.Fault.power_cut_draws);
    power_cuts = sum (fun c -> c.Fault.power_cuts);
  }
