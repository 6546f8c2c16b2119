(* verify: the model plane.  Two recorded runs taken from trace to
   verdict (Recorder -> Racecheck -> Replay.lower -> History.check), and
   outcome enumeration of the standard litmus corpus plus seeded
   generated programs under every model. *)

open Perfbench_util
open Common
module Config = Pmc_sim.Config
module Runner = Pmc_apps.Runner
module Litmus = Pmc_model.Litmus
module Lprog = Pmc_model.Lprog
module Models = Pmc_model.Models
module History = Pmc_model.History
module Recorder = Pmc_trace.Recorder
module Racecheck = Pmc_trace.Racecheck
module Replay = Pmc_trace.Replay

type trace_case = { app : string; backend : Pmc.Backends.kind; cores : int; scale : int }

(* kv_store/swcc at 16 cores is the largest point the history checker
   fits in a shared host's memory; 32 cores needs ~7.6 GB. *)
let trace_cases =
  [
    { app = "kv_store"; backend = Pmc.Backends.Swcc; cores = 16; scale = 32 };
    { app = "raytrace"; backend = Pmc.Backends.Dsm; cores = 8; scale = 32 };
  ]

let generated_programs = 64

let models : (string * (module Models.SEM)) list =
  [
    ("sc", (module Models.Sc));
    ("pc", (module Models.Pc));
    ("cc", (module Models.Cc));
    ("ec", (module Models.Ec));
    ("slow", (module Models.Slow));
    ("pmc", (module Models.Pmc));
  ]

(* EXPERIMENTS.md's Section IV-E outcome sets of the standard corpus. *)
type expect = Exactly of string list | Allows of string | Forbids of string | Stuck of int

let expectations =
  let mp42 = [ "0 | 42" ] and mp_both = [ "0 | 0"; "0 | 42" ] in
  let fig4 = [ "0 | 0"; "2 | 0" ] in
  [
    (Lprog.mp_plain, [ ("sc", Exactly mp42); ("pc", Exactly mp42); ("cc", Exactly mp_both);
                       ("slow", Exactly mp_both); ("pmc", Exactly mp_both) ]);
    (Lprog.mp_fence, [ ("sc", Exactly mp42); ("pc", Exactly mp42); ("cc", Exactly mp_both);
                       ("slow", Exactly mp_both); ("pmc", Exactly mp42) ]);
    (Lprog.mp_annotated, [ ("sc", Exactly mp42); ("pc", Exactly mp42); ("cc", Exactly mp42);
                           ("slow", Exactly mp_both); ("pmc", Exactly mp42) ]);
    (Lprog.sb, [ ("sc", Forbids "0 | 0"); ("pc", Allows "0 | 0"); ("cc", Allows "0 | 0");
                 ("slow", Allows "0 | 0"); ("pmc", Allows "0 | 0") ]);
    (Lprog.exclusive_fig4, [ ("sc", Exactly fig4); ("pc", Exactly fig4); ("cc", Exactly fig4);
                             ("slow", Allows "1 | 0"); ("pmc", Exactly fig4) ]);
    (Lprog.mp_annotated_nofence, [ ("ec", Exactly mp42); ("ec", Stuck 0);
                                   ("pmc", Exactly mp42); ("pmc", Stuck 1) ]);
  ]

let holds (r : Litmus.result) = function
  | Exactly l -> Litmus.outcomes_list r = List.sort compare l
  | Allows o -> Litmus.allows r o
  | Forbids o -> not (Litmus.allows r o)
  | Stuck n -> r.stuck_states = n

type ctx = { cfg_seed : int; programs : Lprog.t list }

let recorded_run ?spans ?(parent = -1) ~cfg_seed tc =
  let spans = Option.value spans ~default:(Span.create ~on:false) in
  let app =
    match Pmc_apps.Registry.find tc.app with Some a -> a | None -> failwith tc.app
  in
  let cfg = { Config.default with cores = tc.cores; seed = cfg_seed } in
  let recorder = ref None in
  let r =
    Span.record spans ~parent ~layer:"sim" ~name:("Runner.run " ^ tc.app)
      (fun _ ->
        Runner.run ~cfg
          ~on_api:(fun api -> recorder := Some (Recorder.attach api))
          app ~backend:tc.backend ~scale:tc.scale)
  in
  (r, Option.get !recorder)

type verdict = {
  result : Runner.result;
  events : int;
  dropped : int;
  races : int;
  history_events : int;
  locs : int;
  skipped : int;
  violations : int;
  record_s : float;
  racecheck_s : float;
  lower_s : float;
  history_s : float;
  history_words : float;
  total_s : float;
}

let trace_to_verdict spans ~parent ~cfg_seed tc =
  let name = Printf.sprintf "%s/%s/c%d" tc.app (Pmc.Backends.to_string tc.backend) tc.cores in
  Span.record spans ~parent ~layer:"bench" ~name:("trace-to-verdict " ^ name) @@ fun pid ->
  let timed layer name f =
    let t0 = now () in
    let v = Span.record spans ~parent:pid ~layer ~name (fun _ -> f ()) in
    (v, now () -. t0)
  in
  let t0 = now () in
  let result, recorder = recorded_run ~spans ~parent:pid ~cfg_seed tc in
  let trace, _ = timed "trace" "Recorder.events" (fun () -> Recorder.events recorder) in
  let record_s = now () -. t0 in
  let races, racecheck_s =
    timed "trace" "Racecheck.check" (fun () -> Racecheck.check ~cores:tc.cores trace)
  in
  let low, lower_s = timed "trace" "Replay.lower" (fun () -> Replay.lower trace) in
  let w0 = Gc.minor_words () in
  let report, history_s =
    timed "model" "History.check" (fun () ->
        History.check ~init:low.init ~procs:tc.cores ~locs:(max 1 low.locs) low.events)
  in
  {
    result;
    events = List.length trace;
    dropped = Recorder.dropped_total recorder;
    races = List.length races;
    history_events = List.length low.events;
    locs = low.locs;
    skipped = low.skipped;
    violations = List.length report.violations;
    record_s;
    racecheck_s;
    lower_s;
    history_s;
    history_words = Gc.minor_words () -. w0;
    total_s = now () -. t0;
  }

let verdict_ok v =
  Runner.ok v.result && v.dropped = 0 && v.races = 0 && v.violations = 0

let setup ~seed _spans =
  let cfg_seed = Rng.derive ~seed "verify.config" land 0xFFFF_FFFF in
  let programs = Litmus_gen.generate ~seed ~count:generated_programs in
  (* warm-up: a small recording and one enumeration of the corpus *)
  let small = { app = "kv_store"; backend = Pmc.Backends.Swcc; cores = 4; scale = 8 } in
  let _, recorder = recorded_run ~cfg_seed small in
  let low = Replay.lower (Recorder.events recorder) in
  ignore (History.check ~init:low.init ~procs:4 ~locs:(max 1 low.locs) low.events);
  ignore (Litmus.enumerate_matrix Lprog.all_standard);
  { cfg_seed; programs }

let outcome_digest (r : Litmus.result) =
  Fnv.hex (Fnv.string (String.concat "\n" (Litmus.outcomes_list r)))

let pass ctx spans ~calib ~root =
  let ops = ref [] and failed = ref 0 and attempted = ref 0 in
  let exact = Buffer.create 4096 in
  let fail what =
    Printf.eprintf "perfbench: verify: %s\n%!" what;
    incr failed
  in
  (* Enumeration first, while the heap is small.  It is one operation,
     every program under every model, as litmus_run over a program set:
     a single program's or model's time moves with the seed's generated
     programs, the sum hardly does. *)
  let programs = Array.of_list (Lprog.all_standard @ ctx.programs) in
  let results = Array.map (fun _ -> ref []) programs in
  let too_large = Array.map (fun _ -> ref []) programs in
  let enum_s = ref 0.0 in
  Calib.sample calib;
  let calib_at = ref [ Calib.count calib ] in
  List.iter
    (fun (mname, m) ->
      let t0 = now () in
      Array.iteri
        (fun i (p : Lprog.t) ->
          match
            Span.record spans ~parent:root ~layer:"model"
              ~name:(Printf.sprintf "Litmus.enumerate %s/%s" p.name mname)
              (fun _ -> Litmus.enumerate m p)
          with
          | r -> results.(i) := (mname, r) :: !(results.(i))
          | exception Litmus.State_space_too_large n ->
              too_large.(i) := Printf.sprintf "%s: state space over %d" mname n :: !(too_large.(i)))
        programs;
      enum_s := !enum_s +. (now () -. t0))
    models;
  ops := [ ms_of_s !enum_s ];
  let states = ref 0 and stuck = ref 0 and cells = ref 0 in
  Array.iteri
    (fun i (p : Lprog.t) ->
      incr attempted;
      let rs = List.rev !(results.(i)) in
      List.iter
        (fun (mname, (r : Litmus.result)) ->
          incr cells;
          states := !states + r.states_explored;
          stuck := !stuck + r.stuck_states;
          Printf.bprintf exact "%s/%s states=%d stuck=%d outcomes=%s\n" p.name mname
            r.states_explored r.stuck_states (outcome_digest r))
        rs;
      let get m = List.assoc_opt m rs in
      let chain =
        match (get "sc", get "pc", get "cc", get "slow") with
        | Some sc, Some pc, Some cc, Some slow
          when not (Litmus.subset_of sc pc && Litmus.subset_of pc cc && Litmus.subset_of cc slow)
          -> [ "outcomes(SC) ⊆ PC ⊆ CC ⊆ Slow does not hold" ]
        | _ -> []
      in
      let experiments =
        List.filter_map
          (fun (m, e) ->
            match get m with
            | Some r when holds r e -> None
            | _ -> Some (m ^ ": differs from EXPERIMENTS.md"))
          (Option.value ~default:[] (List.assq_opt p expectations))
      in
      match List.rev !(too_large.(i)) @ chain @ experiments with
      | [] -> ()
      | problems -> fail (p.name ^ ": " ^ String.concat "; " problems))
    programs;
  (* trace to verdict *)
  let verdicts =
    List.map
      (fun tc ->
        Calib.sample calib;
        calib_at := Calib.count calib :: !calib_at;
        let v = trace_to_verdict spans ~parent:root ~cfg_seed:ctx.cfg_seed tc in
        (* free one pipeline's heap before the next, so the peak
           resident set is that of the largest pipeline, as when each
           runs in its own process *)
        Gc.full_major ();
        incr attempted;
        ops := ms_of_s v.total_s :: !ops;
        if not (verdict_ok v) then
          fail
            (Printf.sprintf "%s: checksum ok=%b dropped=%d races=%d violations=%d" tc.app
               (Runner.ok v.result) v.dropped v.races v.violations);
        Printf.bprintf exact "%s wall=%d ck=%Ld events=%d dropped=%d races=%d hist=%d locs=%d skipped=%d viol=%d\n"
          tc.app v.result.wall v.result.checksum v.events v.dropped v.races v.history_events
          v.locs v.skipped v.violations;
        v)
      trace_cases
  in
  let fi = float_of_int in
  let sumi f = List.fold_left (fun a v -> a + f v) 0 verdicts in
  let sumf f = List.fold_left (fun a v -> a +. f v) 0.0 verdicts in
  let history_s = sumf (fun v -> v.history_s) in
  let wall = sumi (fun v -> v.result.wall) in
  let busy = sumi (fun v -> Pmc_sim.Stats.category_cycles v.result.summary Pmc_sim.Stats.Busy) in
  let total = sumi (fun v -> v.result.summary.total_cycles) in
  let served = List.filter_map (fun v -> v.result.service) verdicts in
  let traced = Span.enabled spans in
  let counts =
    [
      ("sim_cycles", fi wall);
      ("utilization", ratio (fi busy) (fi total));
      ("req_p99_cycles",
        fi (List.fold_left (fun a s -> max a s.Pmc_apps.Service.p99) 0 served));
      ("trace.events", fi (sumi (fun v -> v.events)));
      ("trace.dropped", fi (sumi (fun v -> v.dropped)));
      ("trace.races", fi (sumi (fun v -> v.races)));
      ("trace.skipped", fi (sumi (fun v -> v.skipped)));
      ("model.history_events", fi (sumi (fun v -> v.history_events)));
      ("model.history_locs", fi (sumi (fun v -> v.locs)));
      ("model.history_violations", fi (sumi (fun v -> v.violations)));
      ("model.enum_cells", fi !cells);
      ("model.enum_states", fi !states);
      ("model.enum_stuck", fi !stuck);
    ]
  in
  let host =
    if traced then
      [
        ("sim.run_s", sumf (fun v -> v.record_s));
        ("trace.record_s", sumf (fun v -> v.record_s));
        ("trace.racecheck_s", sumf (fun v -> v.racecheck_s));
        ("trace.lower_s", sumf (fun v -> v.lower_s));
        ("model.history_s", history_s);
        ("model.history_events_per_s", fi (sumi (fun v -> v.history_events)) /. history_s);
        ("model.history_share", history_s /. sumf (fun v -> v.total_s));
        ("model.enum_s", !enum_s);
        ("model.enum_states_per_s", fi !states /. !enum_s);
      ]
    else
      [
        ("trace_to_verdict_s", sumf (fun v -> v.total_s));
        ("model.history_minor_words", sumf (fun v -> v.history_words));
        ("litmus_states_per_s", fi !states /. !enum_s);
      ]
  in
  {
    ops_ms = List.rev !ops;
    calib_at = List.rev !calib_at;
    attempted = !attempted;
    failed = !failed;
    exact = Buffer.contents exact;
    metrics = counts @ host;
  }

(* Not scaled: over 7 passes of one run, log pass time followed log
   kernel time with slope 0.15 (correlation 0.48), while the kernel's
   median moved by 16 % and the pass time by 8 %.  History.check walks a
   heap of ~3 GB, which the host's drift slows differently from the
   kernel's small allocations; scaling added the kernel's noise. *)
let calib_elasticity = 0.0

let run_metrics _ = []
let peak_rss_mb _ = vm_hwm_mb None
