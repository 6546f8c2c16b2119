(** Application harness: run an annotated workload on a chosen back-end,
    collect Fig. 8-style statistics and a determinism checksum that must
    match the app's sequential reference on every back-end. *)

type app = {
  name : string;
  code_footprint : int;   (** synthetic I-stream: code size in bytes *)
  jump_prob : float;      (** per-line taken-jump probability *)
  setup : Pmc.Api.t -> scale:int -> (unit -> int64);
      (** allocate shared state and spawn one task per core; the returned
          closure collects the checksum after the run *)
  reference : seed:int -> cores:int -> scale:int -> int64;
      (** sequential reference checksum; [seed] is the workload PRNG seed
          ({!Pmc_sim.Config.t.seed}) — only the served-traffic apps
          ({!Kv_store}, {!Mailbox}) consume it *)
}

type result = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  wall : int;
  summary : Pmc_sim.Stats.summary;
  service : Service.summary option;
      (** request throughput and latency percentiles; [Some] only for the
          served-traffic apps ({!Kv_store}, {!Mailbox}) *)
  checksum : int64;
  reference : int64;
}

val ok : result -> bool
(** Checksum matches the sequential reference. *)

val run :
  ?cfg:Pmc_sim.Config.t -> ?on_api:(Pmc.Api.t -> unit) -> app ->
  backend:Pmc.Backends.kind -> scale:int -> result
(** [on_api] is called with the freshly created runtime instance before
    any task is spawned — the hook point for attaching observers such as
    a {!Pmc_trace.Recorder}. *)

(** {1 Traced runs} *)

type stop =
  | Typed of Pmc_sim.Pmc_error.context  (** {!Pmc_sim.Pmc_error.Error} *)
  | Watchdog of int      (** {!Pmc_sim.Engine.Watchdog}: livelock cycle *)
  | Deadlock of string   (** {!Pmc_sim.Engine.Deadlock} *)
  | Power_cut of int     (** {!Pmc_sim.Engine.Power_cut}: cut cycle *)
(** Why a run ended before completing. *)

type outcome = (result, stop) Stdlib.result

val run_traced :
  ?capacity:int -> ?cfg:Pmc_sim.Config.t -> app ->
  backend:Pmc.Backends.kind -> scale:int -> outcome * Pmc_trace.Recorder.t
(** {!run} with a {!Pmc_trace.Recorder} ([capacity] events per core)
    attached before any task is spawned.  The recorder comes back
    whether the run completed or stopped on a typed error, watchdog,
    deadlock or power cut; the machine it observed is reachable through
    {!Pmc_trace.Recorder.api}.  Judge its trace with
    {!Pmc_trace.Replay.verdict}. *)

val finished : outcome -> result
(** The completed run; re-raises the exception that stopped it, so a
    traced caller fails exactly as an untraced {!run} would. *)

val stop_to_string : stop -> string

val pp_result : Format.formatter -> result -> unit

val mix64 : int64 -> int64
(** Checksum mixer (splitmix64 finalizer). *)
