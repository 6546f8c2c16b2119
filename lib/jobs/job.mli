(** Jobs: the self-contained work units shared by the one-shot CLIs and
    the {!Pmc_serve} daemon.

    A job captures by value everything its execution depends on, so
    {!Run.run} is a pure function of (job, budget) and the canonical
    JSON encoding of a job is a sound verdict-cache key (see DESIGN.md
    §12): equal encodings denote byte-identical results. *)

type litmus = {
  program : string;      (** a standard litmus program, by name *)
  models : string list;  (** model names/aliases; [[]] = every model *)
  limit : int option;    (** state-space budget override *)
}

type check = {
  name : string;    (** reporting name (the CLI passes the file path) *)
  source : string;  (** annotated-program text ({!Pmc_compile.Parse}) *)
}

type bench = {
  app : string;
  backend : string;
  topology : string;
      (** fabric name accepted by {!Pmc_sim.Topology.resolve}; jobs
          decoded from pre-topology encodings default to ["star"], which
          is what they ran on — so old cache keys stay sound *)
  cores : int;
  scale : int;
  unbatched : bool;
  warmup : int;
  repeat : int;
}

type chaos = {
  c_app : string;
  c_backend : string;
  c_topology : string;  (** fabric name; decode default ["star"] *)
  c_cores : int;
  c_scale : int;
  seed : int;
  intensity : float;
}

type crash = {
  x_app : string;
  x_backend : string;
  x_topology : string;  (** fabric name; decode default ["star"] *)
  x_cores : int;
  x_scale : int;
  x_seed : int;
  x_window : int;
      (** power-cut window in cycles.  Carried by value because the cut
          cycle is a pure function of (seed, window)
          ({!Pmc_sim.Fault.power_cut_cycle}) — the encoding alone
          determines the cut, which keeps the verdict cache sound *)
  x_log : bool;  (** redo log armed; [false] = tearable debug mode *)
}

type t =
  | Litmus of litmus  (** enumerate outcome sets under each model *)
  | Check of check    (** parse + static discipline check + lowering *)
  | Bench of bench    (** one measured benchmark case (no host timing) *)
  | Chaos of chaos    (** one seeded fault-injection run with verdict *)
  | Crash of crash    (** one power-cut crash-recovery experiment *)

val kind_name : t -> string

val to_json : t -> Pmc_bench.Json.t
(** Canonical: field order is fixed, so equal jobs encode equally. *)

val of_json : Pmc_bench.Json.t -> t
(** Accepts every older encoding: a missing topology decodes to
    ["star"], and the model-replay opt-out fields of older chaos and
    crash jobs are ignored — every run is judged.
    @raise Failure on malformed input. *)

val key : t -> string
(** [Json.to_compact (to_json t)] — the verdict-cache key material. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary (not the canonical encoding). *)
