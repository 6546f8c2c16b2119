(* Unit tests of the benchmark's own helpers: nearest-rank percentiles,
   the Zipf request stream, span self time, the seeded generator and the
   calibration kernel's bookkeeping. *)

open Perfbench_util

let feq = Alcotest.float 1e-9

let test_percentile () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.check feq "p30 of 5 is rank 2" 20. (Pct.nearest_rank xs ~p:30.);
  Alcotest.check feq "p40 of 5 is rank 2" 20. (Pct.nearest_rank xs ~p:40.);
  Alcotest.check feq "p50 of 5 is rank 3" 35. (Pct.nearest_rank xs ~p:50.);
  Alcotest.check feq "p100 is the max" 50. (Pct.nearest_rank xs ~p:100.);
  Alcotest.check feq "tiny p clamps to rank 1" 15. (Pct.nearest_rank xs ~p:0.001);
  Alcotest.check feq "input order does not matter" 35.
    (Pct.median [| 50.; 15.; 40.; 35.; 20. |]);
  Alcotest.check feq "even count: lower middle" 2. (Pct.median [| 4.; 1.; 3.; 2. |]);
  let hundred = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p99 of 1..1000" 990. (Pct.nearest_rank hundred ~p:99.);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.nearest_rank: no samples")
    (fun () -> ignore (Pct.median [||]))

let test_zipf () =
  let n = 512 and theta = 0.99 in
  let z = Zipf.create ~n ~theta in
  let h = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) theta) in
  let total_h = Array.fold_left ( +. ) 0.0 h in
  Alcotest.check (Alcotest.float 1e-12) "rank 0 probability" (h.(0) /. total_h) (Zipf.prob z 0);
  let total = 1500 in
  let q = Zipf.quotas z ~total in
  Alcotest.(check int) "quotas sum to the total" total (Array.fold_left ( + ) 0 q);
  Array.iteri
    (fun k c ->
      let share = Zipf.prob z k *. float_of_int total in
      if Float.abs (float_of_int c -. share) >= 1.0 then
        Alcotest.failf "rank %d: quota %d, share %.3f" k c share;
      if k > 0 && c > q.(k - 1) then Alcotest.failf "quota rises at rank %d" k)
    q;
  let s = Zipf.stream z (Rng.create 42) ~total ~min_each:1 in
  let counts = Array.make n 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) s;
  Alcotest.(check (array int)) "stream: every rank once plus the quotas of the rest"
    (Array.map (fun c -> c + 1) (Zipf.quotas z ~total:(total - n)))
    counts;
  Alcotest.(check (array int)) "same seed, same stream" s
    (Zipf.stream z (Rng.create 42) ~total ~min_each:1);
  Alcotest.(check bool) "another seed, another order" false
    (s = Zipf.stream z (Rng.create 43) ~total ~min_each:1)

let span ~id ~parent ~layer start stop =
  { Span.id; parent; group = -1; layer; name = layer; start; stop }

let test_self_time () =
  (* root [0,10] with children [1,4] and [3,6] (overlapping: cover 5),
     and [9,12] (clipped to [9,10]: cover 1); a grandchild [1,2] under
     the first child *)
  let spans =
    [
      span ~id:0 ~parent:(-1) ~layer:"bench" 0. 10.;
      span ~id:1 ~parent:0 ~layer:"sim" 1. 4.;
      span ~id:2 ~parent:0 ~layer:"sim" 3. 6.;
      span ~id:3 ~parent:0 ~layer:"model" 9. 12.;
      span ~id:4 ~parent:1 ~layer:"trace" 1. 2.;
    ]
  in
  let self = Span.self_times spans in
  Alcotest.check feq "root self = 10 - 6 covered" 4. (List.assoc "bench" self);
  Alcotest.check feq "sim self = (3 - 1) + 3" 5. (List.assoc "sim" self);
  Alcotest.check feq "model self" 3. (List.assoc "model" self);
  Alcotest.check feq "trace self" 1. (List.assoc "trace" self);
  Alcotest.check feq "disjoint cover" 3.
    (Span.covered ~lo:0. ~hi:10. [ (1., 2.); (5., 7.) ]);
  Alcotest.check feq "nested cover" 4. (Span.covered ~lo:0. ~hi:10. [ (2., 6.); (3., 4.) ])

let test_recorder () =
  let t = Span.create ~on:true in
  let v =
    Span.record t ~layer:"bench" ~name:"outer" (fun id ->
        Span.record t ~parent:id ~group:7 ~layer:"sim" ~name:"inner" (fun _ -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Span.spans t with
  | [ inner; outer ] ->
      Alcotest.(check int) "parent link" outer.id inner.parent;
      Alcotest.(check int) "group" 7 inner.group;
      Alcotest.(check bool) "nested in time" true
        (outer.start <= inner.start && inner.stop <= outer.stop)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  let off = Span.create ~on:false in
  Alcotest.(check int) "off: parent id" (-1) (Span.record off ~layer:"x" ~name:"y" Fun.id);
  Alcotest.(check int) "off: nothing recorded" 0 (List.length (Span.spans off))

let test_rng () =
  let a = Rng.create 7 and b = Rng.create 7 in
  Alcotest.(check bool) "same seed, same draws" true
    (List.init 10 (fun _ -> Rng.next a) = List.init 10 (fun _ -> Rng.next b));
  Alcotest.(check bool) "derived streams differ" true
    (Rng.derive ~seed:1 "a" <> Rng.derive ~seed:1 "b");
  Alcotest.(check bool) "derived seeds are non-negative" true (Rng.derive ~seed:3 "x" >= 0);
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 5 in
    if x < 0 || x >= 5 then Alcotest.failf "Rng.int out of range: %d" x
  done;
  Alcotest.(check string) "fnv-1a of \"a\"" "af63dc4c8601ec8c" (Fnv.hex (Fnv.string "a"))

let test_calib () =
  let c = Calib.create () in
  Alcotest.check feq "no samples: no scaling" 1.0 (Calib.scale c ~elasticity:1.0);
  for _ = 1 to 3 do Calib.sample c done;
  let t = Calib.samples c in
  Alcotest.(check int) "one time per sample" 3 (Array.length t);
  Array.iter (fun x -> if not (x > 0.0) then Alcotest.failf "kernel time %g" x) t;
  let ratio = Calib.reference_s /. Pct.median t in
  Alcotest.check feq "scale is reference over median" ratio (Calib.scale c ~elasticity:1.0);
  Alcotest.check feq "elasticity is an exponent" (Float.sqrt ratio)
    (Calib.scale c ~elasticity:0.5);
  Alcotest.check feq "elasticity 0: no scaling" 1.0 (Calib.scale c ~elasticity:0.0);
  let r = Calib.reference_s and k = [| 0.004; 0.009; 0.016 |] in
  Alcotest.check feq "bracketed: geometric mean of the samples around"
    (r /. Float.sqrt (0.004 *. 0.009)) (Calib.scale_at k 1 ~elasticity:1.0);
  Alcotest.check feq "before the first sample: the first" (r /. 0.004)
    (Calib.scale_at k 0 ~elasticity:1.0);
  Alcotest.check feq "after the last sample: the last" (r /. 0.016)
    (Calib.scale_at k 3 ~elasticity:1.0);
  Alcotest.check feq "bracketed, elasticity 0.5"
    (Float.sqrt (r /. Float.sqrt (0.009 *. 0.016))) (Calib.scale_at k 2 ~elasticity:0.5);
  Alcotest.check feq "no samples: no scaling" 1.0 (Calib.scale_at [||] 4 ~elasticity:1.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "zipf stream" `Quick test_zipf;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_recorder;
          Alcotest.test_case "seeded generator" `Quick test_rng;
          Alcotest.test_case "calibration kernel" `Quick test_calib;
        ] );
    ]
