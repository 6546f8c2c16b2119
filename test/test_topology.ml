(* Topology and served-traffic tests: the routing geometry (hop counts,
   route enumeration, link ids), the exact percentile statistics, the
   purity of per-request latencies in (seed, topology, backend, cores),
   model replay on routed fabrics, and the schema back-compatibility of
   jobs and bench reports that predate topologies. *)

open Pmc_sim

(* ---------------- resolve / parse ---------------- *)

let test_resolve () =
  let ok name cores expect =
    match Topology.resolve name ~cores with
    | Ok t ->
        Alcotest.(check string)
          (Printf.sprintf "%s @ %d cores" name cores)
          expect (Topology.to_string t)
    | Error e -> Alcotest.failf "%s @ %d cores: %s" name cores e
  in
  ok "star" 7 "star";
  ok "mesh:4x8" 32 "mesh:4x8";
  ok "torus:2x3" 6 "torus:2x3";
  ok "hier:4x8" 32 "hier:4x8";
  (* bare names pick the near-square factorization of the core count *)
  ok "mesh" 32 "mesh:4x8";
  ok "mesh" 36 "mesh:6x6";
  ok "torus" 12 "torus:3x4";
  ok "hier" 1024 "hier:32x32";
  let bad name cores =
    match Topology.resolve name ~cores with
    | Ok t ->
        Alcotest.failf "%s @ %d cores resolved to %s" name cores
          (Topology.to_string t)
    | Error _ -> ()
  in
  bad "mesh:4x4" 32;     (* dims don't cover the tile count *)
  bad "mesh:0x4" 0;
  bad "ring" 8;          (* unknown fabric *)
  bad "mesh:4" 4         (* malformed dims *)

(* ---------------- hop counts ---------------- *)

let test_hops () =
  let check name t ~cores ~src ~dst expect =
    Alcotest.(check int)
      (Printf.sprintf "%s %d->%d" name src dst)
      expect
      (Topology.hops t ~cores ~src ~dst)
  in
  (* star keeps the seed's ring-distance formula *)
  check "star" Topology.Star ~cores:8 ~src:0 ~dst:3 3;
  check "star" Topology.Star ~cores:8 ~src:0 ~dst:7 1;
  (* mesh: Manhattan distance, row-major layout *)
  let mesh = Topology.Mesh { x = 4; y = 4 } in
  check "mesh" mesh ~cores:16 ~src:0 ~dst:15 6;
  check "mesh" mesh ~cores:16 ~src:5 ~dst:6 1;
  check "mesh" mesh ~cores:16 ~src:3 ~dst:12 6;
  (* torus: per-dimension wraparound distance *)
  let torus = Topology.Torus { x = 4; y = 4 } in
  check "torus" torus ~cores:16 ~src:0 ~dst:15 2;
  check "torus" torus ~cores:16 ~src:0 ~dst:3 1;
  check "torus" torus ~cores:16 ~src:0 ~dst:2 2;  (* wrap tie *)
  (* hier: 0 same tile, 2 within a cluster, 3 across clusters *)
  let hier = Topology.Hier { clusters = 4; size = 4 } in
  check "hier" hier ~cores:16 ~src:5 ~dst:5 0;
  check "hier" hier ~cores:16 ~src:4 ~dst:7 2;
  check "hier" hier ~cores:16 ~src:0 ~dst:15 3

let test_wrap_dist () =
  Alcotest.(check int) "no wrap" 1 (Topology.wrap_dist 1 4);
  Alcotest.(check int) "wrap" 1 (Topology.wrap_dist 3 4);
  Alcotest.(check int) "tie" 2 (Topology.wrap_dist 2 4);
  Alcotest.(check int) "negative" 1 (Topology.wrap_dist (-3) 4)

(* ---------------- route enumeration ---------------- *)

let route t ~cores ~src ~dst =
  let links = ref [] in
  Topology.iter_route t ~cores ~src ~dst (fun l -> links := l :: !links);
  List.rev !links

(* On every fabric, the number of links a route enumerates equals the
   hop count, and every link id is within [0, link_count). *)
let test_route_matches_hops () =
  let fabrics =
    [
      ("star", Topology.Star, 8);
      ("mesh", Topology.Mesh { x = 4; y = 4 }, 16);
      ("torus", Topology.Torus { x = 4; y = 4 }, 16);
      ("hier", Topology.Hier { clusters = 4; size = 4 }, 16);
    ]
  in
  List.iter
    (fun (name, t, cores) ->
      let n_links = Topology.link_count t in
      for src = 0 to cores - 1 do
        for dst = 0 to cores - 1 do
          let links = route t ~cores ~src ~dst in
          (* the star fabric routes over one logical link and enumerates
             no physical ones *)
          let expect =
            if t = Topology.Star then 0
            else Topology.hops t ~cores ~src ~dst
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %d->%d route length" name src dst)
            expect (List.length links);
          List.iter
            (fun l ->
              if l < 0 || l >= n_links then
                Alcotest.failf "%s %d->%d: link %d outside [0,%d)" name src
                  dst l n_links)
            links
        done
      done)
    fabrics

(* Opposite unidirectional links are distinct: A->B and B->A share no
   link id on the grids (each direction is its own physical channel). *)
let test_routes_directed () =
  let t = Topology.Mesh { x = 4; y = 4 } in
  let fwd = route t ~cores:16 ~src:1 ~dst:14 in
  let bwd = route t ~cores:16 ~src:14 ~dst:1 in
  List.iter
    (fun l ->
      if List.mem l bwd then
        Alcotest.failf "link %d appears in both directions" l)
    fwd

(* ---------------- exact percentiles ---------------- *)

let test_percentile_exact () =
  let xs = Array.init 100 (fun i -> i + 1) in
  (* nearest-rank on 1..100: p(q) is exactly the q-th sample *)
  Alcotest.(check int) "p50 of 1..100" 50
    (Pmc_apps.Service.percentile xs ~permille:500);
  Alcotest.(check int) "p99 of 1..100" 99
    (Pmc_apps.Service.percentile xs ~permille:990);
  Alcotest.(check int) "p999 of 1..100" 100
    (Pmc_apps.Service.percentile xs ~permille:999);
  (* no interpolation: the result is always a sample, ceiling rank *)
  Alcotest.(check int) "p50 of [1;2]" 1
    (Pmc_apps.Service.percentile [| 2; 1 |] ~permille:500);
  Alcotest.(check int) "p99 of [1;2]" 2
    (Pmc_apps.Service.percentile [| 2; 1 |] ~permille:990);
  Alcotest.(check int) "p50 of [7]" 7
    (Pmc_apps.Service.percentile [| 7 |] ~permille:500);
  Alcotest.(check int) "p50 of [1;2;3]" 2
    (Pmc_apps.Service.percentile [| 3; 1; 2 |] ~permille:500);
  (* unsorted input is sorted internally *)
  Alcotest.(check int) "p999 of shuffled" 100
    (Pmc_apps.Service.percentile
       (Array.init 100 (fun i -> 100 - i))
       ~permille:999);
  Alcotest.check_raises "empty is an error"
    (Invalid_argument "Service.percentile: empty") (fun () ->
      ignore (Pmc_apps.Service.percentile [||] ~permille:500))

let test_zipf_skew () =
  let z = Pmc_apps.Service.Zipf.create ~n:64 ~theta:0.99 in
  Alcotest.(check int) "n" 64 (Pmc_apps.Service.Zipf.n z);
  Alcotest.(check int) "u=0 is the hottest rank" 0
    (Pmc_apps.Service.Zipf.sample z ~u:0.0);
  Alcotest.(check int) "u->1 is the coldest rank" 63
    (Pmc_apps.Service.Zipf.sample z ~u:0.999999);
  (* heavy tail: rank 0 absorbs well over 1/64 of the mass *)
  let hits = ref 0 in
  for i = 0 to 999 do
    let u =
      Int64.to_float
        (Int64.shift_right_logical
           (Pmc_apps.Service.draw ~seed:42 ~core:0 ~i ~tag:0) 11)
      *. (1.0 /. 9007199254740992.0)
    in
    if Pmc_apps.Service.Zipf.sample z ~u = 0 then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rank 0 is hot (%d/1000 hits)" !hits)
    true (!hits > 100)

(* ---------------- latency purity ---------------- *)

let run_kv ~topology ~cores ~backend ~seed =
  let cfg = { Config.default with cores; topology; seed } in
  Pmc_apps.Runner.run ~cfg Pmc_apps.Kv_store.app ~backend ~scale:2

(* Per-request latencies — summarized by the digest, which pins every
   individual sample — are a pure function of (seed, topology, backend,
   cores): two fresh runs agree exactly. *)
let prop_latency_pure =
  QCheck.Test.make ~count:12 ~name:"service: latencies pure in (seed,topo,backend,cores)"
    QCheck.(
      quad
        (oneofl [ "star"; "mesh"; "torus"; "hier" ])
        (oneofl
           [ Pmc.Backends.Seqcst; Pmc.Backends.Nocc; Pmc.Backends.Swcc;
             Pmc.Backends.Dsm; Pmc.Backends.Spm ])
        (oneofl [ 4; 8; 16 ])
        (int_range 1 1000))
    (fun (topo_name, backend, cores, seed) ->
      let topology = Result.get_ok (Topology.resolve topo_name ~cores) in
      let r1 = run_kv ~topology ~cores ~backend ~seed in
      let r2 = run_kv ~topology ~cores ~backend ~seed in
      let s1 = Option.get r1.Pmc_apps.Runner.service in
      let s2 = Option.get r2.Pmc_apps.Runner.service in
      Pmc_apps.Runner.ok r1 && Pmc_apps.Runner.ok r2 && s1 = s2
      && r1.Pmc_apps.Runner.wall = r2.Pmc_apps.Runner.wall)

(* ---------------- model replay on routed fabrics ---------------- *)

(* The PMC consistency argument is topology-independent: traces recorded
   on routed, contended fabrics must still replay clean through the
   formal model, for every back-end. *)
let test_replay_routed () =
  List.iter
    (fun (topo_name, cores) ->
      let topology = Result.get_ok (Topology.resolve topo_name ~cores) in
      let cfg = { Config.default with cores; topology } in
      List.iter
        (fun backend ->
          let outcome, rec_ =
            Pmc_apps.Runner.run_traced ~cfg Pmc_apps.Kv_store.app ~backend
              ~scale:2
          in
          let r = Pmc_apps.Runner.finished outcome in
          let name =
            Printf.sprintf "kv_store/%s/%s" topo_name
              (Pmc.Backends.to_string backend)
          in
          Alcotest.(check bool) (name ^ " checksum") true
            (Pmc_apps.Runner.ok r);
          let dropped = Pmc_trace.Recorder.dropped_total rec_ in
          Alcotest.(check int) (name ^ " complete trace") 0 dropped;
          Alcotest.(check bool) (name ^ " PMC-consistent") true
            (Pmc_trace.Replay.verdict Pmc_trace.Replay.Model ~cores ~dropped
               (Pmc_trace.Recorder.events rec_)
            = Pmc_trace.Replay.Consistent))
        [ Pmc.Backends.Seqcst; Pmc.Backends.Swcc; Pmc.Backends.Dsm;
          Pmc.Backends.Spm ])
    [ ("mesh:2x2", 4); ("torus:2x2", 4); ("hier:2x2", 4) ]

(* Mailbox correctness across fabrics and back-ends (kv_store is covered
   by the purity property above). *)
let test_mailbox_routed () =
  List.iter
    (fun topo_name ->
      let cores = 8 in
      let topology = Result.get_ok (Topology.resolve topo_name ~cores) in
      let cfg = { Config.default with cores; topology } in
      List.iter
        (fun backend ->
          let r =
            Pmc_apps.Runner.run ~cfg Pmc_apps.Mailbox.app ~backend ~scale:4
          in
          Alcotest.(check bool)
            (Printf.sprintf "mailbox/%s/%s" topo_name
               (Pmc.Backends.to_string backend))
            true (Pmc_apps.Runner.ok r))
        Pmc.Backends.all)
    [ "star"; "mesh"; "torus"; "hier" ]

(* ---------------- back-compatibility ---------------- *)

(* A bench/chaos job encoded before topologies existed decodes to the
   star fabric — old verdict-cache keys keep their meaning. *)
let test_job_topology_default () =
  let bench_json =
    Pmc_bench.Json.parse
      {|{"kind":"bench","app":"stencil","backend":"dsm","cores":4,
         "scale":8,"unbatched":false,"warmup":0,"repeat":1}|}
  in
  (match Pmc_jobs.Job.of_json bench_json with
  | Pmc_jobs.Job.Bench b ->
      Alcotest.(check string) "bench defaults to star" "star"
        b.Pmc_jobs.Job.topology
  | _ -> Alcotest.fail "expected a bench job");
  let chaos_json =
    Pmc_bench.Json.parse
      {|{"kind":"chaos","app":"stencil","backend":"dsm","cores":4,
         "scale":8,"seed":1,"intensity":1.0,"model_check":true,
         "replay_budget":null}|}
  in
  match Pmc_jobs.Job.of_json chaos_json with
  | Pmc_jobs.Job.Chaos c ->
      Alcotest.(check string) "chaos defaults to star" "star"
        c.Pmc_jobs.Job.c_topology
  | _ -> Alcotest.fail "expected a chaos job"

(* A schema-3 report (no topology, no served-traffic metrics) still
   loads: topology reads back as star and the service metrics as
   absent. *)
let test_report_v3_loads () =
  let v3 =
    {|{"schema":3,"label":"old","suite":"smoke","unbatched":false,"jobs":1,
       "results":[{"app":"stencil","backend":"dsm","cores":8,"scale":4,
         "ok":true,"deterministic":true,"repeats":1,
         "metrics":{"cycles":1000,"noc_flits":10,"noc_writes":2,
           "flushes":1,"lock_acquires":3,"lock_transfers":2,
           "dcache_misses":5,"instructions":900,"utilization":0.5},
         "host_s":0.001,"host_cycles_per_s":1000000.0,
         "minor_words":128.0}]}|}
  in
  let report = Pmc_bench.Report.of_json (Pmc_bench.Json.parse v3) in
  Alcotest.(check int) "schema" 3 report.Pmc_bench.Report.schema;
  match report.Pmc_bench.Report.samples with
  | [ s ] ->
      Alcotest.(check string) "topology defaults to star" "star"
        (Topology.to_string s.Pmc_bench.Measure.case.Pmc_bench.Spec.topology);
      Alcotest.(check int) "no requests recorded" 0
        s.Pmc_bench.Measure.metrics.Pmc_bench.Measure.requests;
      Alcotest.(check string) "case id keeps the historic form"
        "stencil/dsm/c8/s4"
        (Pmc_bench.Spec.case_id s.Pmc_bench.Measure.case)
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

(* Current-schema round trip, topology and service metrics included. *)
let test_sample_roundtrip_v4 () =
  let case =
    {
      Pmc_bench.Spec.app = "kv_store";
      backend = Pmc.Backends.Dsm;
      topology = Topology.Mesh { x = 4; y = 4 };
      cores = 16;
      scale = 4;
      work = Pmc_bench.Spec.Sim;
    }
  in
  let sample =
    Pmc_bench.Measure.run_case ~unbatched:false ~warmup:0 ~repeat:1 case
  in
  Alcotest.(check bool) "checksum ok" true sample.Pmc_bench.Measure.ok;
  Alcotest.(check bool) "records requests" true
    (sample.Pmc_bench.Measure.metrics.Pmc_bench.Measure.requests > 0);
  let back =
    Pmc_bench.Measure.sample_of_json
      (Pmc_bench.Json.parse
         (Pmc_bench.Json.to_compact
            (Pmc_bench.Measure.sample_to_json sample)))
  in
  (* the case and every integer metric — topology and the service
     latencies included — survive exactly; float fields (host_s,
     throughput, ...) are printed with %.6g and only approximate *)
  Alcotest.(check bool) "case round trips" true
    (back.Pmc_bench.Measure.case = sample.Pmc_bench.Measure.case);
  List.iter
    (fun name ->
      Alcotest.(check (float 0.0))
        (name ^ " round trips")
        (Pmc_bench.Measure.metric sample.Pmc_bench.Measure.metrics name)
        (Pmc_bench.Measure.metric back.Pmc_bench.Measure.metrics name))
    Pmc_bench.Measure.metric_names;
  Alcotest.(check string) "routed case ids carry the fabric"
    "kv_store/dsm/mesh:4x4/c16/s4"
    (Pmc_bench.Spec.case_id case)

let suite =
  ( "topology",
    [
      Alcotest.test_case "resolve" `Quick test_resolve;
      Alcotest.test_case "hop counts" `Quick test_hops;
      Alcotest.test_case "wrap distance" `Quick test_wrap_dist;
      Alcotest.test_case "routes match hops" `Quick test_route_matches_hops;
      Alcotest.test_case "routes are directed" `Quick test_routes_directed;
      Alcotest.test_case "exact percentiles" `Quick test_percentile_exact;
      Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
      QCheck_alcotest.to_alcotest prop_latency_pure;
      Alcotest.test_case "model replay on routed fabrics" `Slow
        test_replay_routed;
      Alcotest.test_case "mailbox on routed fabrics" `Slow
        test_mailbox_routed;
      Alcotest.test_case "job topology default" `Quick
        test_job_topology_default;
      Alcotest.test_case "schema-3 report loads" `Quick test_report_v3_loads;
      Alcotest.test_case "schema-4 sample round trip" `Quick
        test_sample_roundtrip_v4;
    ] )
