(** Chaos soak harness.

    Runs registered applications under seeded fault schedules
    ({!Pmc_sim.Config.chaos}) and holds them to a hard contract: a run
    may complete with the right answer, or fail with a typed error —
    but it must never finish with a silently wrong answer or a trace
    the PMC model cannot explain.  The fault plane is deterministic, so
    every verdict is reproducible from
    (app, backend, cores, scale, seed, intensity). *)

type verdict =
  | Completed
      (** Checksum matched the sequential reference; when the trace was
          complete, the model replay also found the run PMC-consistent. *)
  | Typed_error of string
      (** The run died with a typed, attributable error
          ({!Pmc_sim.Pmc_error.Error}, watchdog, deadlock) — acceptable
          under injected faults. *)
  | Wrong_result of { checksum : int64; reference : int64 }
      (** Silent wrong answer — always a harness failure. *)
  | Inconsistent of int
      (** The model replay found this many violations — always a
          harness failure. *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  intensity : float;
  verdict : verdict;
  wall : int;
  faults : Pmc_sim.Fault.counts;  (** snapshot of the run's counters *)
  events : int;                   (** trace events captured *)
  dropped : int;                  (** trace events lost to ring overflow *)
  replayed : bool;
      (** the model replay judged the run (every completed run with a
          complete trace) *)
}

val acceptable : verdict -> bool
(** [Completed] and [Typed_error] are acceptable; [Wrong_result] and
    [Inconsistent] are not. *)

val total_injected : Pmc_sim.Fault.counts -> int
(** Faults actually injected (drops, corruptions, delays, SDRAM errors,
    stalls, power cuts) — protocol reactions (retries, relays) not
    included. *)

val run_one :
  ?intensity:float -> ?max_cycles:int -> ?topology:Pmc_sim.Topology.t ->
  Runner.app -> backend:Pmc.Backends.kind -> cores:int -> scale:int ->
  seed:int -> report
(** One traced run ({!Runner.run_traced}) under
    [Config.chaos ~intensity ~seed].  Every completed run is judged by
    {!Pmc_trace.Replay.verdict}, whatever its trace length; only a ring
    overflow leaves it [Completed] with [replayed = false] (see
    {!unjudged}).  [max_cycles] tightens the livelock watchdog to a
    per-request cycle budget (a budget overrun surfaces as a
    [Typed_error] watchdog verdict); [topology] (default
    {!Pmc_sim.Topology.Star}) selects the fabric — on routed fabrics the
    plane draws one outcome per physical link of each route (by-hop
    fault addressing, {!Pmc_sim.Fault.route_outcome}). *)

val unjudged : report -> bool
(** [Completed] with [replayed = false]: the checksum matched but the
    trace dropped events, so the model replay could not judge the run.
    Such a run is inconclusive — exit 5 ([Pmc_jobs.Result.exit_code]). *)

type soak = {
  reports : report list;  (** in run order *)
  total : int;
  completed : int;
  typed_errors : int;
  failed : int;           (** wrong results + inconsistent replays *)
  injected : int;         (** faults injected across all runs *)
  unchecked : int;        (** {!unjudged} runs *)
}

val summarize : report list -> soak
(** Verdict totals of a report list.  A soak is a batch of [Pmc_jobs]
    chaos jobs ([Pmc_jobs.Run.chaos_wall]). *)

type identity = { identical : bool; detail : string }

val zero_cost_identity :
  Runner.app -> backend:Pmc.Backends.kind -> cores:int -> scale:int ->
  seed:int -> identity
(** The bit-identical-when-off invariant:
    [Config.no_faults (Config.chaos ~seed cfg)] must reproduce the
    never-armed run exactly — same wall clock, same checksum, same
    per-category cycle accounts. *)

val soak_counts : soak -> Pmc_sim.Fault.counts
(** Aggregate fault counters across every report of the soak. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_counts : Format.formatter -> Pmc_sim.Fault.counts -> unit

val pp_tag_summary : Format.formatter -> Pmc_sim.Fault.counts -> unit
(** One line of per-tag hits/draws pairs (noc, sdram, stall, power-cut)
    — the soak's "did tag X actually fire?" summary. *)

val pp_report : Format.formatter -> report -> unit
val pp_soak : Format.formatter -> soak -> unit
