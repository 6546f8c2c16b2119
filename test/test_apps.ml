(* Application integration tests: every workload runs on every back-end
   and must produce the sequential reference checksum — the portability
   claim of the paper, checked end to end.  Also: determinism across
   repeated runs, scaling of core counts, and the performance relations
   the case studies report. *)

open Pmc_sim

let small_scale (a : Pmc_apps.Runner.app) =
  match a.Pmc_apps.Runner.name with
  | "motion_est" -> 3
  | "radiosity" -> 48
  | "streaming" -> 8
  | _ -> 16

let cfg = { Config.default with cores = 8 }

let test_all_apps_all_backends () =
  List.iter
    (fun (a : Pmc_apps.Runner.app) ->
      List.iter
        (fun backend ->
          let r =
            Pmc_apps.Runner.run ~cfg a ~backend ~scale:(small_scale a)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s matches the sequential reference"
               a.Pmc_apps.Runner.name
               (Pmc.Backends.to_string backend))
            true (Pmc_apps.Runner.ok r))
        Pmc.Backends.all)
    Pmc_apps.Registry.all

let test_determinism () =
  (* the simulation is fully deterministic: identical wall time and
     checksum run to run *)
  List.iter
    (fun (a : Pmc_apps.Runner.app) ->
      let r1 = Pmc_apps.Runner.run ~cfg a ~backend:Pmc.Backends.Swcc
          ~scale:(small_scale a) in
      let r2 = Pmc_apps.Runner.run ~cfg a ~backend:Pmc.Backends.Swcc
          ~scale:(small_scale a) in
      Alcotest.(check int)
        (a.Pmc_apps.Runner.name ^ ": deterministic wall time")
        r1.Pmc_apps.Runner.wall r2.Pmc_apps.Runner.wall;
      Alcotest.(check int64)
        (a.Pmc_apps.Runner.name ^ ": deterministic checksum")
        r1.Pmc_apps.Runner.checksum r2.Pmc_apps.Runner.checksum)
    [ Pmc_apps.Radiosity_like.app; Pmc_apps.Kernels.Histogram.app ]

let test_core_count_invariance () =
  (* radiosity's checksum is core-count independent (commutative updates,
     dynamic task queue) *)
  List.iter
    (fun cores ->
      let cfg = { Config.default with cores } in
      let r =
        Pmc_apps.Runner.run ~cfg Pmc_apps.Radiosity_like.app
          ~backend:Pmc.Backends.Swcc ~scale:48
      in
      Alcotest.(check bool)
        (Printf.sprintf "radiosity correct on %d cores" cores)
        true (Pmc_apps.Runner.ok r))
    [ 1; 2; 4; 16; 32 ];
  (* streaming needs a core per stage (source, filter, sink): below three
     cores it is a typed error, not a discipline or spawn failure *)
  List.iter
    (fun cores ->
      let cfg = { Config.default with cores } in
      match
        Pmc_apps.Runner.run ~cfg Pmc_apps.Streaming.app
          ~backend:Pmc.Backends.Dsm ~scale:8
      with
      | _ -> Alcotest.failf "streaming ran on %d cores" cores
      | exception Pmc_error.Error _ -> ())
    [ 1; 2 ]

(* The Fig. 8 relation: SWCC beats no-CC on all three SPLASH-2-like
   kernels, utilization rises, and flush overhead stays small. *)
let test_fig8_relation () =
  let cfg32 = Config.default in
  List.iter
    (fun ((a : Pmc_apps.Runner.app), scale) ->
      let nocc = Pmc_apps.Runner.run ~cfg:cfg32 a ~backend:Pmc.Backends.Nocc ~scale in
      let swcc = Pmc_apps.Runner.run ~cfg:cfg32 a ~backend:Pmc.Backends.Swcc ~scale in
      Alcotest.(check bool)
        (a.Pmc_apps.Runner.name ^ ": both correct")
        true
        (Pmc_apps.Runner.ok nocc && Pmc_apps.Runner.ok swcc);
      Alcotest.(check bool)
        (a.Pmc_apps.Runner.name ^ ": SWCC improves execution time")
        true
        (swcc.Pmc_apps.Runner.wall < nocc.Pmc_apps.Runner.wall);
      Alcotest.(check bool)
        (a.Pmc_apps.Runner.name ^ ": SWCC improves utilization")
        true
        (Stats.utilization swcc.Pmc_apps.Runner.summary
        > Stats.utilization nocc.Pmc_apps.Runner.summary);
      Alcotest.(check bool)
        (a.Pmc_apps.Runner.name ^ ": flush overhead small (< 6%)")
        true
        (Stats.fraction swcc.Pmc_apps.Runner.summary Stats.Flush_overhead
        < 0.06))
    [
      (Pmc_apps.Radiosity_like.app, 256);
      (Pmc_apps.Raytrace_like.app, 64);
      (Pmc_apps.Volrend_like.app, 64);
    ]

(* The Fig. 10 relation: on a small-cache tile, SPM beats SWCC beats
   no-CC for motion estimation. *)
let test_fig10_relation () =
  let cfg =
    { Config.default with dcache_sets = 64; dcache_ways = 2; line_bytes = 8 }
  in
  let run backend =
    Pmc_apps.Runner.run ~cfg Pmc_apps.Motion_est.app ~backend ~scale:4
  in
  let nocc = run Pmc.Backends.Nocc in
  let swcc = run Pmc.Backends.Swcc in
  let spm = run Pmc.Backends.Spm in
  Alcotest.(check bool) "all correct" true
    (Pmc_apps.Runner.ok nocc && Pmc_apps.Runner.ok swcc
    && Pmc_apps.Runner.ok spm);
  Alcotest.(check bool)
    (Printf.sprintf "SPM (%d) beats SWCC (%d)" spm.Pmc_apps.Runner.wall
       swcc.Pmc_apps.Runner.wall)
    true
    (spm.Pmc_apps.Runner.wall < swcc.Pmc_apps.Runner.wall);
  Alcotest.(check bool) "SWCC beats no-CC" true
    (swcc.Pmc_apps.Runner.wall < nocc.Pmc_apps.Runner.wall)

(* The Sec. VI-B context: the FIFO pipeline runs fastest on DSM, where
   polling stays in local memories. *)
let test_streaming_dsm_advantage () =
  let cfg = { Config.default with cores = 8 } in
  let run backend =
    Pmc_apps.Runner.run ~cfg Pmc_apps.Streaming.app ~backend ~scale:16
  in
  let dsm = run Pmc.Backends.Dsm in
  let nocc = run Pmc.Backends.Nocc in
  Alcotest.(check bool) "both correct" true
    (Pmc_apps.Runner.ok dsm && Pmc_apps.Runner.ok nocc);
  Alcotest.(check bool)
    (Printf.sprintf "DSM (%d) beats uncached shared memory (%d)"
       dsm.Pmc_apps.Runner.wall nocc.Pmc_apps.Runner.wall)
    true
    (dsm.Pmc_apps.Runner.wall < nocc.Pmc_apps.Runner.wall)

let suite =
  ( "apps",
    [
      Alcotest.test_case "all apps x all back-ends" `Slow
        test_all_apps_all_backends;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "core-count invariance" `Slow
        test_core_count_invariance;
      Alcotest.test_case "Fig. 8 relation" `Slow test_fig8_relation;
      Alcotest.test_case "Fig. 10 relation" `Slow test_fig10_relation;
      Alcotest.test_case "streaming on DSM" `Slow
        test_streaming_dsm_advantage;
    ] )
