(* Properties of the flat hot core (Bigarray memories, arena scheduler,
   no-sink probe fast path).

   The byte-level flat-vs-seed contract lives in the runtest goldens
   (flat_golden.expected, pmc_demo_flat.expected); these tests pin the
   properties that keep that contract stable under change:

     - the engine fast path (a consume that stays ahead of every other
       pending entry) allocates nothing at all;
     - the suspension path allocates only the runtime's continuation —
       a small bounded number of minor words per event;
     - runs are bit-repeatable for random (app, back-end, cores, chaos)
       points, not just the golden matrix;
     - attaching a trace sink never changes timing or values: the
       traced and untraced executions of the same case agree on every
       architectural counter (the probe/trace gating is observation,
       not behaviour). *)

open Pmc_sim

(* ---------------- allocation ---------------- *)

(* One task, no competitors: every consume takes the engine's in-place
   fast path.  The loop must allocate zero words — the assertion allows
   a small constant for the spawn fiber and run bookkeeping only. *)
let test_fast_path_zero_alloc () =
  let e = Engine.create { Config.small with cores = 1 } in
  let iters = 100_000 in
  Engine.spawn e ~core:0 (fun () ->
      for i = 1 to iters do
        Engine.consume e Stats.Busy ((i land 7) + 1)
      done);
  let w0 = Gc.minor_words () in
  Engine.run e;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "fast path allocates nothing (%d consumes cost %.0f \
                     words)" iters dw)
    true (dw < 5_000.0)

(* Two tasks in lock-step: every consume overtakes the other pending
   entry, so every event goes through suspend/resume.  The arena keeps
   the engine's own cost at zero; what remains is the effect handler's
   continuation, a bounded constant per suspension. *)
let test_suspension_alloc_bounded () =
  let e = Engine.create { Config.small with cores = 2 } in
  let iters = 20_000 in
  for c = 0 to 1 do
    Engine.spawn e ~core:c (fun () ->
        for _ = 1 to iters do
          Engine.consume e Stats.Busy 3
        done)
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  let dw = Gc.minor_words () -. w0 in
  let per_event = dw /. float_of_int (2 * iters) in
  Alcotest.(check bool)
    (Printf.sprintf "suspension path bounded (%.1f words/event)" per_event)
    true (per_event < 48.0)

(* ---------------- randomized equivalence ---------------- *)

let cases =
  [ ("streaming", 6); ("stencil", 2); ("histogram", 12); ("reduce", 48) ]

let backends =
  [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm ]

(* Everything deterministic a run produces, as one comparable value. *)
let digest ?(traced = false) ~chaos (app_name, scale) backend cores =
  let app =
    match Pmc_apps.Registry.find app_name with
    | Some a -> a
    | None -> failwith ("unknown app " ^ app_name)
  in
  let cfg = { Config.small with cores } in
  let cfg =
    match chaos with None -> cfg | Some seed -> Config.chaos ~seed cfg
  in
  let r =
    if traced then
      Pmc_apps.Runner.finished
        (fst (Pmc_apps.Runner.run_traced ~cfg app ~backend ~scale))
    else Pmc_apps.Runner.run ~cfg app ~backend ~scale
  in
  let s = r.Pmc_apps.Runner.summary in
  ( ( r.Pmc_apps.Runner.wall,
      r.Pmc_apps.Runner.checksum,
      s.Stats.instructions,
      s.Stats.noc_flits,
      s.Stats.noc_writes,
      s.Stats.flushes ),
    ( s.Stats.lock_acquires,
      s.Stats.lock_transfers,
      s.Stats.dcache_misses,
      s.Stats.dcache_hits,
      s.Stats.icache_misses,
      List.map (Stats.category_cycles s) Stats.categories ) )

let arb_point =
  let print (case, backend, cores, chaos) =
    Printf.sprintf "%s/%d on %s c%d chaos=%s" (fst case) (snd case)
      (Pmc.Backends.to_string backend)
      cores
      (match chaos with None -> "-" | Some s -> string_of_int s)
  in
  (* cores >= 4: below that, streaming folds two pipeline roles onto one
     core and the per-core scope discipline (one task per core) breaks —
     a pre-existing app limitation, not a property of the hot core *)
  QCheck.make ~print
    QCheck.Gen.(
      quad (oneofl cases) (oneofl backends) (oneofl [ 4; 8 ])
        (oneofl [ None; None; Some 3; Some 11 ]))

let prop_repeatable =
  QCheck.Test.make ~count:20
    ~name:"flat core: two runs of the same point are identical"
    arb_point
    (fun (case, backend, cores, chaos) ->
      digest ~chaos case backend cores = digest ~chaos case backend cores)

let prop_trace_transparent =
  QCheck.Test.make ~count:20
    ~name:"flat core: attaching a trace sink changes no counter"
    arb_point
    (fun (case, backend, cores, chaos) ->
      digest ~chaos case backend cores
      = digest ~traced:true ~chaos case backend cores)

let suite =
  ( "flat",
    [
      Alcotest.test_case "fast path zero alloc" `Quick
        test_fast_path_zero_alloc;
      Alcotest.test_case "suspension alloc bounded" `Quick
        test_suspension_alloc_bounded;
      QCheck_alcotest.to_alcotest prop_repeatable;
      QCheck_alcotest.to_alcotest prop_trace_transparent;
    ] )
