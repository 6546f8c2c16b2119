(** Crash-consistency checker for the far-memory tier.

    One experiment runs an application on the [farmem] back-end with a
    seed-derived power cut armed ({!Pmc_sim.Config.crash}), snapshots
    the durable image the cut left behind, replays recovery
    ({!Pmc_sim.Farmem.recover}), and then requires

    - {b no torn object}: every shared object's recovered payload equals
      the state after its k-th publication (k = the object's durable
      publication count) — an [exit_x]/[flush] is fully visible or fully
      absent, never a byte mix; and
    - {b a PMC-consistent durable prefix}: the committed prefix of the
      recorded trace replays clean through {!Pmc_model.History}.

    The fault plane is deterministic: every verdict is reproducible from
    (app, backend, cores, scale, seed, window, log) alone, which is what
    lets the chaos-crash job kind cache verdicts. *)

type obj_check = {
  obj_name : string;
  words : int;
  committed : int;   (** durable publication count k (recovered media) *)
  published : int;   (** publication events recorded in the trace *)
  in_flight : bool;  (** k = published + 1: commit durable, event unsent *)
  torn_words : int;  (** payload words differing from publication k *)
}

type verdict =
  | Completed
      (** The cut landed past the wall; the full-run checks were clean. *)
  | Recovered
      (** The cut fired; no torn object and the durable prefix is
          PMC-consistent. *)
  | Torn of { objects : int; words : int }
      (** Some object's recovered payload mixes two publications. *)
  | Prefix_inconsistent of int
      (** Model violations found in the durable prefix. *)
  | Check_error of string
      (** The experiment itself failed (typed error before the cut,
          trace overflow, wrong backend, ...). *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  window : int;      (** cut window the schedule was drawn from *)
  cut : int option;  (** cycle the cut fired at, [None] if it never did *)
  log : bool;        (** redo log armed ({!Pmc_sim.Config.t.farmem_log}) *)
  verdict : verdict;
  wall : int;
  objects : obj_check list;
  recovery : Pmc_sim.Farmem.recovery option;
  events : int;
  dropped : int;
  replayed : bool;   (** the durable-prefix model replay ran *)
}

val acceptable : verdict -> bool
(** [Completed] and [Recovered] pass; everything else fails. *)

val window :
  log:bool -> topology:Pmc_sim.Topology.t -> Runner.app ->
  backend:Pmc.Backends.kind -> cores:int -> scale:int -> int
(** The cut window of an experiment geometry: the wall clock of a
    fault-free twin run (at least 1).  The crash config leaves the
    access-plane fault path disarmed, so the pre-cut timeline is exactly
    the fault-free timeline and a cut drawn from this window lands
    inside the run.  Every seed of an app shares it. *)

val crash_one :
  ?log:bool -> window:int -> ?topology:Pmc_sim.Topology.t -> Runner.app ->
  backend:Pmc.Backends.kind -> cores:int -> scale:int -> seed:int -> report
(** One crash experiment on a traced run ({!Runner.run_traced}).  [log]
    (default [true]) arms the redo log — [false] selects the
    deliberately tearable word-by-word publication the checker must
    catch.  [window] bounds the cut cycle (see {!window}).  The durable
    prefix of every experiment without a torn object is judged by
    {!Pmc_trace.Replay.verdict}, so a passing verdict always has
    [replayed = true]; a trace that dropped events is a [Check_error]. *)

type sweep = {
  reports : report list;  (** in run order *)
  total : int;
  cuts : int;             (** experiments whose cut actually fired *)
  recovered : int;
  completed : int;
  torn : int;
  inconsistent : int;
  errors : int;
}

val summarize : report list -> sweep
(** Verdict totals of a report list.  A sweep is a batch of
    [Pmc_jobs] crash jobs ([Pmc_jobs.Run.crash_wall]). *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
val pp_sweep : Format.formatter -> sweep -> unit
