(* Application harness: run an annotated application on a chosen back-end
   and collect the Fig. 8-style statistics plus a determinism checksum.

   Every app is written once against [Pmc.Api]; the harness swaps the
   back-end underneath — the PMC portability claim, exercised end to end.
   The checksum must match the app's sequential reference on every
   back-end and core count; the integration tests enforce this. *)

open Pmc_sim

type app = {
  name : string;
  (* synthetic instruction-stream profile (Fig. 8 I-cache bars) *)
  code_footprint : int;
  jump_prob : float;
  (* Allocate shared state and spawn one task per core; returns a closure
     that collects the checksum after the run. *)
  setup : Pmc.Api.t -> scale:int -> (unit -> int64);
  (* Sequential reference checksum.  [seed] is the workload PRNG seed
     ([Config.seed]) — only the served-traffic apps consume it. *)
  reference : seed:int -> cores:int -> scale:int -> int64;
}

type result = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  wall : int;                (* wall-clock cycles of the whole run *)
  summary : Stats.summary;
  service : Service.summary option;  (* served-traffic apps only *)
  checksum : int64;
  reference : int64;
}

let ok r = r.checksum = r.reference

(* Each run is an independent universe: restart the domain-local
   handle/lock id counters so ids — which appear in traces and replay
   keys — are a pure function of (app, backend, cfg, scale), identical
   whether the run executes alone, after other runs, or concurrently
   with them on another domain of a [Pmc_par.Pool]. *)
let instantiate ~cfg (a : app) ~backend =
  Pmc.Shared.reset_ids ();
  Pmc_lock.Dlock.reset_ids ();
  Service.reset ();
  let m = Machine.create cfg in
  for core = 0 to cfg.Config.cores - 1 do
    Machine.set_code m ~core ~footprint:a.code_footprint
      ~jump_prob:a.jump_prob
  done;
  Pmc.Backends.create backend m

let execute ~cfg (a : app) api ~backend ~scale : result =
  let m = Pmc.Api.machine api in
  let collect = a.setup api ~scale in
  Machine.run m;
  (* explicit bindings: the checksum collection must run before the
     service summary is taken (both touch post-run state), and record
     field evaluation order is unspecified *)
  let wall = Engine.wall_time (Machine.engine m) in
  let checksum = collect () in
  let service = Service.take ~wall () in
  {
    app = a.name;
    backend;
    cores = cfg.Config.cores;
    scale;
    wall;
    summary = Stats.summarize (Machine.stats m);
    service;
    checksum;
    reference =
      a.reference ~seed:cfg.Config.seed ~cores:cfg.Config.cores ~scale;
  }

let run ?(cfg = Config.default) ?on_api (a : app) ~backend ~scale : result =
  let api = instantiate ~cfg a ~backend in
  (* let observers (e.g. a trace recorder) hook the api before any task runs *)
  Option.iter (fun f -> f api) on_api;
  execute ~cfg a api ~backend ~scale

(* ---------------- traced runs ---------------- *)

type stop =
  | Typed of Pmc_error.context
  | Watchdog of int
  | Deadlock of string
  | Power_cut of int

type outcome = (result, stop) Stdlib.result

let run_traced ?capacity ?(cfg = Config.default) (a : app) ~backend ~scale :
    outcome * Pmc_trace.Recorder.t =
  let api = instantiate ~cfg a ~backend in
  let recorder = Pmc_trace.Recorder.attach ?capacity api in
  let outcome =
    match execute ~cfg a api ~backend ~scale with
    | r -> Ok r
    | exception Pmc_error.Error c -> Error (Typed c)
    | exception Engine.Watchdog n -> Error (Watchdog n)
    | exception Engine.Deadlock msg -> Error (Deadlock msg)
    | exception Engine.Power_cut cycle -> Error (Power_cut cycle)
  in
  (outcome, recorder)

let finished : outcome -> result = function
  | Ok r -> r
  | Error (Typed c) -> raise (Pmc_error.Error c)
  | Error (Watchdog n) -> raise (Engine.Watchdog n)
  | Error (Deadlock msg) -> raise (Engine.Deadlock msg)
  | Error (Power_cut cycle) -> raise (Engine.Power_cut cycle)

let stop_to_string = function
  | Typed c -> Pmc_error.to_string c
  | Watchdog n -> Printf.sprintf "watchdog: no progress by cycle %d" n
  | Deadlock msg -> "deadlock: " ^ msg
  | Power_cut cycle -> Printf.sprintf "power cut at cycle %d" cycle

let pp_result ppf (r : result) =
  Fmt.pf ppf "%-12s %-7s cores=%-3d scale=%-5d wall=%-10d util=%5.1f%% %s@."
    r.app
    (Pmc.Backends.to_string r.backend)
    r.cores r.scale r.wall
    (100.0 *. Stats.utilization r.summary)
    (if ok r then "OK" else
       Printf.sprintf "CHECKSUM MISMATCH (%Ld vs %Ld)" r.checksum r.reference);
  Option.iter
    (fun s -> Fmt.pf ppf "  %a@." Service.pp_summary s)
    r.service

(* Mix for checksums (order-independent accumulation uses addition). *)
let mix64 (x : int64) =
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xFF51AFD7ED558CCDL in
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xC4CEB9FE1A85EC53L in
  Int64.logxor x (Int64.shift_right_logical x 33)
