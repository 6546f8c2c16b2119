(** Job execution: the pure function from (job, budget) to result.

    [run] never raises and touches no global state beyond what the
    simulator resets per run (DESIGN.md §11), so it may execute on any
    domain of a {!Pmc_par.Pool} and its results are reproducible bit
    for bit — the property the {!Pmc_serve} verdict cache relies on. *)

type budget = {
  max_cycles : int option;
      (** per-request simulated-cycle budget: tightens the livelock
          watchdog of bench and chaos runs *)
  max_states : int option;
      (** per-request state-space budget for litmus enumeration *)
}

val no_budget : budget

val tighter : budget -> budget -> budget
(** Pointwise minimum — how a server-wide budget combines with a
    per-request one. *)

val budget_to_json : budget -> Pmc_bench.Json.t
val budget_of_json : Pmc_bench.Json.t -> budget

val run : ?budget:budget -> Job.t -> Result.t
(** Execute one job.  Total: unknown names, parse failures, budget
    overruns and runtime errors all come back as {!Result.Error}. *)

val run_all :
  ?budget:budget -> ?pool:Pmc_par.Pool.t -> Job.t list -> Result.t list
(** Map {!run} over a batch, fanning out over [pool] when given;
    results come back in input order at any pool width. *)

(** {1 Walls of seeds}

    A soak or crash sweep is one job batch — every app × every seed,
    apps outer — run through {!run_all} like any other batch, so its
    verdicts are identical at any pool width and to the daemon's. *)

val chaos_wall :
  apps:string list -> backend:string -> topology:string -> cores:int ->
  scale:int -> seeds:int list -> intensity:float -> Job.t list
(** One {!Job.Chaos} run per app × seed; summarize the reports with
    {!Pmc_apps.Chaos.summarize}. *)

val crash_wall :
  apps:string list -> backend:string -> topology:string -> cores:int ->
  scale:int -> seeds:int list -> window:int option -> log:bool ->
  Job.t list
(** One {!Job.Crash} experiment per app × seed.  Every seed of an app
    shares one cut window: [window] when given, else the app's
    {!Pmc_apps.Crash.window}, learned here once so that the job encoding
    alone fixes the cut cycle.  Summarize with
    {!Pmc_apps.Crash.summarize}. *)

(** {1 Name resolution} — shared by the CLIs and the daemon *)

val check_geometry : cores:int -> scale:int -> (unit, string) Stdlib.result
(** The machine bounds every simulation job is checked against: cores in
    [[1, 1024]], scale at least 1.  [Error] carries the message. *)

val standard_programs : (string * Pmc_model.Lprog.t) list
(** The standard litmus programs keyed by CLI-friendly slug
    (["mp_plain"], ["sb"], ...). *)

val program_names : string list

val find_program : string -> Pmc_model.Lprog.t option
(** By slug or by full descriptive name. *)

val model_names : string list
(** Short model aliases: ["sc"; "pc"; "cc"; "ec"; "slow"; "pmc"]. *)

val find_model : string -> (module Pmc_model.Models.SEM) option
(** By short alias or full name, case-insensitively. *)
