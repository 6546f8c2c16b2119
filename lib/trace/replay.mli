(** Lowering of captured traces into the formal model's history language,
    and the one rule that turns a recorded trace into a verdict.

    [verdict Model] replays an observed run through
    {!Pmc_model.History.check} (the Table-I transition plus the Def. 11/12
    read-value semantics), so every back-end execution can be
    mechanically validated PMC-consistent — whatever its caches, NoC and
    locks did, the values the program observed must be explainable by
    the model.  [verdict Races] runs the {!Racecheck} detector.  Neither
    judges a lossy trace. *)

type lowering = {
  events : Pmc_model.History.event list;
  locs : int;         (** distinct model locations, one per (object, word) *)
  init : int -> int;  (** initial value of each location, from pokes *)
  skipped : int;      (** trace events below the model's vocabulary *)
}

val lower : Event.t list -> lowering
(** Word-granular mapping: entry_x/exit_x → acquire/release per word,
    word accesses → reads/writes with observed values, fences → fences,
    initialization pokes → the checker's [~init] values.  Byte accesses
    and back-end mechanics (lock, NoC, cache, task events) are skipped
    and counted. *)

(** {1 Verdicts} *)

type _ check =
  | Model : Pmc_model.History.violation check
      (** {!lower}, then replay through {!Pmc_model.History.check} *)
  | Races : Racecheck.race check  (** dynamic race detection *)

type inconclusive = Dropped of int  (** events the trace rings overwrote *)

type 'a verdict =
  | Consistent
  | Violations of 'a list  (** model violations, or races *)
  | Inconclusive of inconclusive  (** the trace could not be judged *)

val verdict :
  'a check -> cores:int -> dropped:int -> Event.t list -> 'a verdict
(** Judge a recorded trace, [dropped] being the events its recorder
    lost ({!Recorder.dropped_total}).  A lossy trace is [Inconclusive]
    and is never checked: it can yield no race and no violation.  Every
    complete trace is checked, whatever its length — the per-core rings
    ({!Recorder.attach}) already bound it. *)

val pp_inconclusive : Format.formatter -> inconclusive -> unit
