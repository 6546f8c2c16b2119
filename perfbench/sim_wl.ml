(* sim-read and sim-write: fixed sets of simulated runs through the
   public Runner.run, no recorder attached on the untraced passes. *)

open Perfbench_util
open Common
module Config = Pmc_sim.Config
module Stats = Pmc_sim.Stats
module Runner = Pmc_apps.Runner

type case = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  topology : string;
  scale : int;
  dcache_sets : int;  (** 128 = the default 16 KiB D-cache, 16 = 2 KiB *)
}

let case_name c =
  Printf.sprintf "%s/%s/c%d/%s/s%d/dc%d" c.app
    (Pmc.Backends.to_string c.backend)
    c.cores c.topology c.scale c.dcache_sets

(* Fig. 8: the read-shared SPLASH-like apps on software cache coherency
   and on the uncached baseline, each with its working set inside the
   default 16 KiB D-cache (every app's shared data is 3-12 KiB) and
   beyond a 2 KiB one.  raytrace/swcc posts no NoC writes, so a NoC-side
   change must not move this workload. *)
let read_cases =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun backend ->
          List.map
            (fun dcache_sets ->
              { app; backend; cores = 32; topology = "star"; scale = 64;
                dcache_sets })
            [ 128; 16 ])
        [ Pmc.Backends.Swcc; Pmc.Backends.Nocc ])
    [ "raytrace"; "volrend"; "radiosity" ]

(* DSM write replication (streaming, stencil on the star fabric) and the
   served-traffic apps over routed meshes of 64-256 tiles, which add
   per-link contention, lock handovers and a simulated request tail. *)
let write_cases =
  let dsm app cores topology =
    { app; backend = Pmc.Backends.Dsm; cores; topology; scale = 64;
      dcache_sets = 128 }
  in
  [
    dsm "streaming" 32 "star";
    dsm "stencil" 32 "star";
    dsm "kv_store" 64 "mesh:8x8";
    dsm "mailbox" 64 "mesh:8x8";
    dsm "kv_store" 256 "mesh:16x16";
    dsm "mailbox" 128 "mesh:16x8";
  ]

let config c ~seed =
  let topology =
    match Pmc_sim.Topology.resolve c.topology ~cores:c.cores with
    | Ok t -> t
    | Error e -> failwith e
  in
  { Config.default with cores = c.cores; topology; dcache_sets = c.dcache_sets;
    seed }

let find_app name =
  match Pmc_apps.Registry.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

(* Observer counts of a traced run. *)
type counters = {
  mutable maint_ops : int;
  mutable lines_touched : int;
  mutable lines_written_back : int;
  mutable noc_posts : int;
  mutable noc_bytes : int;
  mutable lock_ops : int;
  mutable tasks : int;
  mutable entry_x : int;
  mutable exit_x : int;
  mutable entry_ro : int;
  mutable exit_ro : int;
  mutable fence : int;
  mutable flush : int;
  mutable reads : int;
  mutable writes : int;
}

let counters () =
  { maint_ops = 0; lines_touched = 0; lines_written_back = 0; noc_posts = 0;
    noc_bytes = 0; lock_ops = 0; tasks = 0; entry_x = 0; exit_x = 0; entry_ro = 0; exit_ro = 0;
    fence = 0; flush = 0; reads = 0; writes = 0 }

let attach k api =
  let open Pmc.Api in
  set_trace api
    (Some
       (fun ~core:_ -> function
         | Ev_entry (X, _) -> k.entry_x <- k.entry_x + 1
         | Ev_exit (X, _) -> k.exit_x <- k.exit_x + 1
         | Ev_entry (Ro, _) -> k.entry_ro <- k.entry_ro + 1
         | Ev_exit (Ro, _) -> k.exit_ro <- k.exit_ro + 1
         | Ev_fence -> k.fence <- k.fence + 1
         | Ev_flush _ -> k.flush <- k.flush + 1
         | Ev_read _ | Ev_read8 _ -> k.reads <- k.reads + 1
         | Ev_write _ | Ev_write8 _ -> k.writes <- k.writes + 1
         | Ev_init _ -> ()));
  Pmc_sim.Probe.set
    (Pmc_sim.Machine.probe (machine api))
    (Some
       (fun ~time:_ -> function
         | Pmc_sim.Probe.Noc_post { bytes; _ } ->
             k.noc_posts <- k.noc_posts + 1;
             k.noc_bytes <- k.noc_bytes + bytes
         | Cache_maint { lines_touched; lines_written_back; _ } ->
             k.maint_ops <- k.maint_ops + 1;
             k.lines_touched <- k.lines_touched + lines_touched;
             k.lines_written_back <- k.lines_written_back + lines_written_back
         | Lock _ -> k.lock_ops <- k.lock_ops + 1
         | Task { op = Spawn; _ } -> k.tasks <- k.tasks + 1
         | Task _ | Fault _ -> ()))

type ctx = { cases : (case * Runner.app * Config.t) array }

module Make (W : sig
  val cases : case list
end) : WORKLOAD = struct
  type nonrec ctx = ctx

  (* Input: every run's Config.seed comes from the seed; the served
     apps draw their request streams from it.  Warm-up runs every case
     once. *)
  let setup ~seed _spans =
    let cfg_seed = Rng.derive ~seed "sim.config" land 0xFFFF_FFFF in
    let cases =
      Array.of_list
        (List.map (fun c -> (c, find_app c.app, config c ~seed:cfg_seed)) W.cases)
    in
    Array.iter
      (fun (c, app, cfg) ->
        Gc.full_major ();
        ignore (Runner.run ~cfg app ~backend:c.backend ~scale:c.scale))
      cases;
    { cases }

  let pass ctx spans ~calib ~root =
    let traced = Span.enabled spans in
    let k = counters () in
    let on_api = if traced then Some (attach k) else None in
    let ops = ref [] and calib_at = ref [] and failed = ref 0 in
    let results = ref [] in
    let host_s = ref 0.0 and minor = ref 0.0 in
    Array.iter
      (fun (c, app, cfg) ->
        (* free the previous run's machine first, so the peak resident
           set is that of the largest case, not of whichever cases a
           collection happened to leave alive together *)
        Gc.full_major ();
        Calib.sample calib;
        let at = Calib.count calib in
        let m0 = Gc.minor_words () in
        let t0 = now () in
        let r =
          Span.record spans ~parent:root ~layer:"sim"
            ~name:("Runner.run " ^ case_name c) (fun _ ->
              Runner.run ~cfg ?on_api app ~backend:c.backend ~scale:c.scale)
        in
        let dt = now () -. t0 in
        minor := !minor +. (Gc.minor_words () -. m0);
        host_s := !host_s +. dt;
        ops := ms_of_s dt :: !ops;
        calib_at := at :: !calib_at;
        if not (Runner.ok r) then begin
          Printf.eprintf "perfbench: %s: checksum %Ld, reference %Ld\n%!"
            (case_name c) r.checksum r.reference;
          incr failed
        end;
        results := (c, r) :: !results)
      ctx.cases;
    let results = List.rev !results in
    let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
    let s f = sum (fun (r : Runner.result) -> f r.summary) in
    let wall = sum (fun r -> r.wall) in
    let total = s (fun x -> x.Stats.total_cycles) in
    let served =
      List.filter_map (fun (_, (r : Runner.result)) -> r.service) results
    in
    let max_served f =
      float_of_int (List.fold_left (fun acc x -> max acc (f x)) 0 served)
    in
    let fi = float_of_int in
    let exact =
      String.concat "\n"
        (List.map
           (fun (c, (r : Runner.result)) ->
             let x = r.summary in
             Printf.sprintf "%s wall=%d total=%d instr=%d cat=%s dc=%d/%d ic=%d lk=%d/%d noc=%d/%d fl=%d ck=%Ld%s"
               (case_name c) r.wall x.total_cycles x.instructions
               (String.concat ","
                  (List.map (fun (_, v) -> string_of_int v) x.per_category))
               x.dcache_hits x.dcache_misses x.icache_misses x.lock_acquires
               x.lock_transfers x.noc_writes x.noc_flits x.flushes r.checksum
               (match r.service with
               | None -> ""
               | Some v ->
                   Printf.sprintf " req=%d p50=%d p99=%d p999=%d lat=%d"
                     v.requests v.p50 v.p99 v.p999 v.lat_digest))
           results)
    in
    let cat c = s (fun x -> Stats.category_cycles x c) in
    let stall =
      List.map2
        (fun n c -> ("sim.stall." ^ n, fi (cat c)))
        Metrics.stall_names Stats.categories
    in
    let dh = s (fun x -> x.dcache_hits) and dm = s (fun x -> x.dcache_misses) in
    let la = s (fun x -> x.lock_acquires) and lt = s (fun x -> x.lock_transfers) in
    let common =
      [
        ("sim_cycles", fi wall);
        ("utilization", ratio (fi (cat Stats.Busy)) (fi total));
        ("req_p99_cycles", max_served (fun v -> v.Pmc_apps.Service.p99));
        ("sim.instructions", fi (s (fun x -> x.instructions)));
        ("sim.dcache_hits", fi dh);
        ("sim.dcache_misses", fi dm);
        ("sim.dcache_hit_ratio", ratio (fi dh) (fi (dh + dm)));
        ("sim.icache_misses", fi (s (fun x -> x.icache_misses)));
        ("sim.noc.writes", fi (s (fun x -> x.noc_writes)));
        ("sim.noc.flits", fi (s (fun x -> x.noc_flits)));
        ("lock.acquires", fi la);
        ("lock.transfers", fi lt);
        ("lock.transfer_ratio", ratio (fi lt) (fi la));
        ("apps.requests",
          fi (List.fold_left (fun a v -> a + v.Pmc_apps.Service.requests) 0 served));
        ("apps.req_p50_cycles", max_served (fun v -> v.p50));
        ("apps.req_p999_cycles", max_served (fun v -> v.p999));
        ("apps.req_per_kcycle",
          List.fold_left (fun a v -> a +. v.Pmc_apps.Service.throughput) 0.0 served);
      ]
      @ stall
    in
    let host =
      if traced then
        [
          ("sim.run_s", !host_s);
          ("sim.cache.maint_ops", fi k.maint_ops);
          ("sim.cache.lines_touched", fi k.lines_touched);
          ("sim.cache.lines_written_back", fi k.lines_written_back);
          ("sim.cache.writeback_ratio",
            ratio (fi k.lines_written_back) (fi k.lines_touched));
          ("sim.noc.posts", fi k.noc_posts);
          ("sim.noc.bytes", fi k.noc_bytes);
          ("sim.tasks", fi k.tasks);
          ("lock.ops", fi k.lock_ops);
          ("core.entry_x", fi k.entry_x);
          ("core.exit_x", fi k.exit_x);
          ("core.entry_ro", fi k.entry_ro);
          ("core.exit_ro", fi k.exit_ro);
          ("core.fence", fi k.fence);
          ("core.flush", fi k.flush);
          ("core.reads", fi k.reads);
          ("core.writes", fi k.writes);
        ]
      else
        [
          ("sim_cycles_per_s", fi wall /. !host_s);
          ("sim.host_ns_per_cycle", !host_s *. 1e9 /. fi wall);
          ("sim.minor_words_per_cycle", !minor /. fi wall);
        ]
    in
    {
      ops_ms = List.rev !ops;
      calib_at = List.rev !calib_at;
      attempted = Array.length ctx.cases;
      failed = !failed;
      exact;
      metrics = common @ host;
    }

  let calib_elasticity = 1.0
  let run_metrics _ = []
  let peak_rss_mb _ = vm_hwm_mb None
  end

module Read = Make (struct let cases = read_cases end)
module Write = Make (struct let cases = write_cases end)
