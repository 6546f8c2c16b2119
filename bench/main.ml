(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations DESIGN.md calls out.

     fig1    — the broken flag program vs. write-latency asymmetry (Fig. 1)
     models  — outcome sets per memory model (Section IV-E's comparisons)
     table2  — annotation lowering per architecture: estimated & measured
     fig8    — execution-time breakdown, no-CC vs SWCC, 3 kernels (Fig. 8)
     fig9    — multi-reader/multi-writer FIFO throughput (Fig. 9 / VI-B)
     fig10   — motion estimation: SPM vs SWCC vs no-CC (Fig. 10 / VI-C)
     scaling — weak-scaling efficiency up to 128 cores (Sec. VI-A's
               scalability motivation)
     ablate  — cache-geometry sweep, lock comparison, entry_ro rule,
               lazy vs eager release

   Absolute numbers come from a simulator, not the authors' FPGA; the
   *shape* (who wins, by roughly what factor) is what reproduces.  Paper
   targets are printed next to each measurement.  Run with section names
   as arguments to select a subset. *)

open Pmc_sim

let section name =
  Fmt.pr "@.========================================================@.";
  Fmt.pr "== %s@." name;
  Fmt.pr "========================================================@."

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)

module Fig1 = struct
  (* Fig. 1: the flag program on a machine where the data memory is
     farther away than the flag memory.  Without PMC the reader observes
     stale data as soon as the latency gap exceeds the polling time;
     the PMC drain always repairs it. *)
  let run () =
    section "Fig. 1 — SC-correct program on a dual-memory machine";
    Fmt.pr "%-14s %-10s %-10s %-10s@." "latency(X)" "lat(flag)" "raw"
      "PMC-fixed";
    List.iter
      (fun lx ->
        let go fixed =
          let m = Machine.create { Config.small with cores = 2 } in
          let o =
            Pmc.Msg.Broken.run m ~src:0 ~dst:1 ~latency_x:lx ~latency_flag:1
              ~fixed
          in
          if Pmc.Msg.Broken.ok o then "ok"
          else Printf.sprintf "BROKEN(%ld)" o.Pmc.Msg.Broken.observed
        in
        Fmt.pr "%-14d %-10d %-10s %-10s@." lx 1 (go false) (go true))
      [ 1; 2; 4; 8; 16; 32; 64 ];
    Fmt.pr
      "paper: the program breaks whenever the data write is slower than \
       the flag write; annotations make it correct on any machine.@."
end

(* ------------------------------------------------------------------ *)

module Models_cmp = struct
  let run () =
    section "Section IV-E — outcome sets per memory model (litmus)";
    List.iter
      (fun p ->
        List.iter
          (fun r -> Fmt.pr "%a@." Pmc_model.Litmus.pp_result r)
          (Pmc_model.Litmus.compare_models p);
        Fmt.pr "@.")
      [
        Pmc_model.Lprog.mp_plain;
        Pmc_model.Lprog.mp_fence;
        Pmc_model.Lprog.mp_annotated;
        Pmc_model.Lprog.mp_annotated_nofence;
        Pmc_model.Lprog.sb;
        Pmc_model.Lprog.exclusive_fig4;
      ];
    Fmt.pr "strength chain SC ⊆ PC ⊆ CC ⊆ Slow: %b (paper: Section II)@."
      (Pmc_model.Litmus.strength_chain_holds
         [
           Pmc_model.Lprog.mp_plain; Pmc_model.Lprog.sb;
           Pmc_model.Lprog.coherence_1w;
         ]);
    Fmt.pr
      "PMC(annotated) == SC on DRF programs: %b (paper: Section IV-E)@."
      (Pmc_model.Drf.sc_equivalent Pmc_model.Lprog.locked_exchange);
    Fmt.pr
      "note the STUCK state of the fence-less Fig. 6 under PMC: the \
       acquire hoisted above the polling loop deadlocks the publisher — \
       the hazard the paper's line-11 fence prevents (EC, which keeps \
       sync in program order, has none).@."
end

(* ------------------------------------------------------------------ *)

module Table2 = struct
  (* The lowering table (estimated) plus *measured* per-annotation costs:
     a single core exercising each annotation on an idle machine. *)
  let measure kind =
    let m = Machine.create { Config.default with cores = 2 } in
    let api = Pmc.Backends.create kind m in
    let o = Pmc.Api.alloc_words api ~name:"o" ~words:16 in
    let costs = ref [] in
    Machine.spawn m ~core:0 (fun () ->
        let time f =
          let t0 = Machine.now m in
          f ();
          Machine.now m - t0
        in
        let ex = time (fun () -> Pmc.Api.entry_x api o) in
        (* touch the object so exit has something to write back *)
        Pmc.Api.set api o 0 1l;
        let fl = time (fun () -> Pmc.Api.flush api o) in
        let xx = time (fun () -> Pmc.Api.exit_x api o) in
        let er = time (fun () -> Pmc.Api.entry_ro api o) in
        let xr = time (fun () -> Pmc.Api.exit_ro api o) in
        let fe = time (fun () -> Pmc.Api.fence api) in
        costs := [ ("entry_x", ex); ("exit_x", xx); ("entry_ro", er);
                   ("exit_ro", xr); ("fence", fe); ("flush", fl) ]);
    Machine.run m;
    !costs

  let run () =
    section "Table II — annotation lowering and measured cost (64 B object)";
    Pmc_compile.Report.pp_lowering_table Fmt.stdout Config.default ~bytes:64;
    Fmt.pr "@.measured cycles on an idle machine (64 B object):@.";
    Fmt.pr "%-10s" "";
    List.iter
      (fun k -> Fmt.pr " %8s" (Pmc.Backends.to_string k))
      Pmc.Backends.all;
    Fmt.pr "@.";
    let per_backend = List.map (fun k -> (k, measure k)) Pmc.Backends.all in
    List.iter
      (fun ann ->
        Fmt.pr "%-10s" ann;
        List.iter
          (fun (_, costs) -> Fmt.pr " %8d" (List.assoc ann costs))
          per_backend;
        Fmt.pr "@.")
      [ "entry_x"; "exit_x"; "entry_ro"; "exit_ro"; "fence"; "flush" ];
    Fmt.pr "paper: fences cost nothing on in-order cores; exits carry the \
            coherence work.@."
end

(* ------------------------------------------------------------------ *)

module Fig8 = struct
  let apps =
    [
      (Pmc_apps.Radiosity_like.app, 1024);
      (Pmc_apps.Raytrace_like.app, 256);
      (Pmc_apps.Volrend_like.app, 256);
    ]

  let breakdown (r : Pmc_apps.Runner.result) =
    let s = r.Pmc_apps.Runner.summary in
    let f c = 100.0 *. Stats.fraction s c in
    ( f Stats.Busy,
      f Stats.Private_read_stall,
      f Stats.Shared_read_stall,
      f Stats.Write_stall,
      f Stats.Icache_stall,
      f Stats.Flush_overhead )

  let run () =
    section "Fig. 8 — execution time breakdown: no CC vs SWCC, 32 cores";
    Fmt.pr "%-10s %-6s %9s %8s %6s %6s %6s %6s %7s %7s@." "app" "setup"
      "wall(cyc)" "norm(%)" "busy%" "priv%" "shar%" "wr%" "icache%"
      "flush%";
    let improvements = ref [] in
    List.iter
      (fun ((app : Pmc_apps.Runner.app), scale) ->
        let nocc =
          Pmc_apps.Runner.run app ~backend:Pmc.Backends.Nocc ~scale
        in
        let swcc =
          Pmc_apps.Runner.run app ~backend:Pmc.Backends.Swcc ~scale
        in
        assert (Pmc_apps.Runner.ok nocc && Pmc_apps.Runner.ok swcc);
        let print label (r : Pmc_apps.Runner.result) =
          let busy, priv, shar, wr, ic, fl = breakdown r in
          Fmt.pr "%-10s %-6s %9d %8.1f %6.1f %6.1f %6.1f %6.1f %7.1f %7.2f@."
            app.Pmc_apps.Runner.name label r.Pmc_apps.Runner.wall
            (pct r.Pmc_apps.Runner.wall nocc.Pmc_apps.Runner.wall)
            busy priv shar wr ic fl
        in
        print "noCC" nocc;
        print "SWCC" swcc;
        improvements :=
          (100.0
          -. pct swcc.Pmc_apps.Runner.wall nocc.Pmc_apps.Runner.wall)
          :: !improvements)
      apps;
    let mean =
      List.fold_left ( +. ) 0.0 !improvements
      /. float_of_int (List.length !improvements)
    in
    Fmt.pr
      "@.SWCC mean execution-time improvement: %.0f%%  (paper: 22%% on \
       average; RADIOSITY 26%%, util 38%%->70%%)@."
      mean;
    Fmt.pr
      "flush-instruction overhead per app is the flush%% column (paper: \
       0.66%%, 0.00%%, 0.01%%)@."
end

(* ------------------------------------------------------------------ *)

module Fig9 = struct
  (* FIFO throughput: cycles per transferred element, per back-end and
     reader count.  The DSM column is the paper's Section VI-B story:
     pointer polling stays in local memories. *)
  let throughput kind ~readers ~items =
    let m = Machine.create { Config.default with cores = 8 } in
    let api = Pmc.Backends.create kind m in
    let fifo =
      Pmc.Fifo.create api ~name:"f" ~depth:8 ~elem_words:4 ~readers
    in
    Machine.spawn m ~core:0 (fun () ->
        for i = 1 to items do
          Pmc.Fifo.push fifo
            (Array.init 4 (fun w -> Int32.of_int ((i * 4) + w)))
        done);
    for r = 0 to readers - 1 do
      Machine.spawn m ~core:(1 + r) (fun () ->
          for _ = 1 to items do
            ignore (Pmc.Fifo.pop fifo ~reader:r)
          done)
    done;
    Machine.run m;
    Engine.wall_time (Machine.engine m) / items

  let run () =
    section "Fig. 9 — MR/MW FIFO: cycles per element (depth 8, 16 B)";
    Fmt.pr "%-9s" "readers";
    List.iter
      (fun k -> Fmt.pr " %8s" (Pmc.Backends.to_string k))
      Pmc.Backends.all;
    Fmt.pr "@.";
    List.iter
      (fun readers ->
        Fmt.pr "%-9d" readers;
        List.iter
          (fun k -> Fmt.pr " %8d" (throughput k ~readers ~items:64))
          Pmc.Backends.all;
        Fmt.pr "@.")
      [ 1; 2; 4 ];
    Fmt.pr
      "paper: the FIFO behaves correctly on all architectures; on DSM the \
       pointers are polled only from local memory.@."
end

(* ------------------------------------------------------------------ *)

module Fig10 = struct
  (* Motion estimation on a MicroBlaze-like tile (narrow 8-byte cache
     lines): the search window is read hundreds of times per block, so
     staging it in the scratch-pad beats refetching through the cache. *)
  let cfg =
    { Config.default with dcache_sets = 64; dcache_ways = 2; line_bytes = 8 }

  let run () =
    section "Fig. 10 — motion estimation (full search), 32 cores";
    let results =
      List.map
        (fun backend ->
          let r =
            Pmc_apps.Runner.run ~cfg Pmc_apps.Motion_est.app ~backend
              ~scale:8
          in
          assert (Pmc_apps.Runner.ok r);
          (backend, r.Pmc_apps.Runner.wall))
        [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Spm ]
    in
    let spm = List.assoc Pmc.Backends.Spm results in
    List.iter
      (fun (b, wall) ->
        Fmt.pr "%-8s %10d cycles   (%.2fx vs SPM)@."
          (Pmc.Backends.to_string b)
          wall
          (float_of_int wall /. float_of_int spm))
      results;
    Fmt.pr
      "paper: \"a significant performance increase when this application \
       is using SPMs, compared to the software cache coherency setup\".@."
end

(* ------------------------------------------------------------------ *)

module Scaling = struct
  (* The motivation of Section VI-A: hardware cache coherency "limits
     scalability to many cores"; software cache coherency must therefore
     scale.  Strong-scaling sweep: fixed total work, growing core count,
     speedup relative to one core, per setup. *)
  let run () =
    section "Scaling — weak scaling efficiency, SWCC vs no-CC (volrend)";
    (* fixed work per core: ideal wall time is flat; the efficiency
       column shows how much the shared SDRAM port erodes it *)
    let pixels_per_core = 256 in
    Fmt.pr "%-8s %12s %12s %10s %10s@." "cores" "noCC(cyc)" "SWCC(cyc)"
      "noCC eff" "SWCC eff";
    let base = Hashtbl.create 4 in
    List.iter
      (fun cores ->
        let cfg = { Config.default with cores } in
        let run backend =
          (Pmc_apps.Runner.run ~cfg Pmc_apps.Volrend_like.app ~backend
             ~scale:pixels_per_core)
            .Pmc_apps.Runner.wall
        in
        let nocc = run Pmc.Backends.Nocc and swcc = run Pmc.Backends.Swcc in
        if cores = 1 then begin
          Hashtbl.replace base `N nocc;
          Hashtbl.replace base `S swcc
        end;
        let eff b w = float_of_int (Hashtbl.find base b) /. float_of_int w in
        Fmt.pr "%-8d %12d %12d %9.0f%% %9.0f%%@." cores nocc swcc
          (100.0 *. eff `N nocc)
          (100.0 *. eff `S swcc))
      [ 1; 2; 4; 8; 16; 32; 64; 128 ];
    Fmt.pr
      "paper motivation (Sec. VI-A): uncached shared data stops scaling as \
       the shared memory saturates; software cache coherency keeps shared \
       data cacheable and keeps scaling.@."
end

(* ------------------------------------------------------------------ *)

module Ablations = struct
  (* (a) cache-geometry sweep for motion estimation: where the SPM pays
     off and where a big wide-line cache catches up. *)
  let me_sweep () =
    Fmt.pr "@.-- motion estimation vs cache geometry (SWCC vs SPM) --@.";
    Fmt.pr "%-26s %10s %10s %8s@." "tile geometry" "SWCC" "SPM" "SPM wins";
    List.iter
      (fun (label, sets, ways, line, lm) ->
        let cfg =
          {
            Config.default with
            dcache_sets = sets;
            dcache_ways = ways;
            line_bytes = line;
            local_mem_cycles = lm;
          }
        in
        let run backend =
          (Pmc_apps.Runner.run ~cfg Pmc_apps.Motion_est.app ~backend
             ~scale:4)
            .Pmc_apps.Runner.wall
        in
        let swcc = run Pmc.Backends.Swcc and spm = run Pmc.Backends.Spm in
        Fmt.pr "%-26s %10d %10d %8s@." label swcc spm
          (if spm < swcc then "yes" else "no"))
      [
        ("1 KiB, 8 B lines", 64, 2, 8, 1);
        ("4 KiB, 8 B lines", 256, 2, 8, 1);
        ("4 KiB, 32 B lines", 64, 2, 32, 1);
        ("16 KiB, 32 B lines", 128, 4, 32, 1);
        ("16 KiB, 32 B, 2-cyc SPM", 128, 4, 32, 2);
      ];
    Fmt.pr
      "(\"it depends on many architectural parameters\" — Sec. VI-C: a \
       wide-line cache plus slow scratch-pad flips the verdict)@."

  (* (b) distributed lock vs centralized spinlock under contention. *)
  let locks () =
    Fmt.pr "@.-- distributed lock [15] vs uncached spinlock --@.";
    Fmt.pr "%-8s %12s %12s@." "cores" "dlock(cyc)" "spinlock(cyc)";
    List.iter
      (fun cores ->
        let cfg = { Config.default with cores } in
        let bench acquire_release =
          let m = Machine.create cfg in
          let acquire, release = acquire_release m in
          for c = 0 to cores - 1 do
            Machine.spawn m ~core:c (fun () ->
                for _ = 1 to 20 do
                  acquire ();
                  Engine.consume (Machine.engine m) Stats.Busy 30;
                  release ()
                done)
          done;
          Machine.run m;
          Engine.wall_time (Machine.engine m)
        in
        let dlock =
          bench (fun m ->
              let l = Pmc_lock.Dlock.create m in
              ( (fun () -> Pmc_lock.Dlock.acquire l),
                fun () -> Pmc_lock.Dlock.release l ))
        in
        let spin =
          bench (fun m ->
              let l = Pmc_lock.Spinlock.create m in
              ( (fun () -> Pmc_lock.Spinlock.acquire l),
                fun () -> Pmc_lock.Spinlock.release l ))
        in
        Fmt.pr "%-8d %12d %12d@." cores dlock spin)
      [ 2; 8; 32 ]

  (* (c) the entry_ro atomic-size rule: word-sized pointer polls without
     locking vs locking every read-only entry. *)
  let ro_rule () =
    Fmt.pr "@.-- entry_ro atomic fast path (FIFO on SWCC, 1 reader) --@.";
    let fifo_wall () =
      let m = Machine.create { Config.default with cores = 4 } in
      let api = Pmc.Backends.create Pmc.Backends.Swcc m in
      let fifo =
        Pmc.Fifo.create api ~name:"f" ~depth:4 ~elem_words:2 ~readers:1
      in
      Machine.spawn m ~core:0 (fun () ->
          for i = 1 to 48 do
            Pmc.Fifo.push fifo [| Int32.of_int i; Int32.of_int i |]
          done);
      Machine.spawn m ~core:1 (fun () ->
          for _ = 1 to 48 do
            ignore (Pmc.Fifo.pop fifo ~reader:0)
          done);
      Machine.run m;
      Engine.wall_time (Machine.engine m)
    in
    Pmc.Shared.set_atomic_threshold 4;
    let fast = fifo_wall () in
    Pmc.Shared.set_atomic_threshold 0;
    let locked = fifo_wall () in
    Pmc.Shared.set_atomic_threshold 4;
    Fmt.pr "word-atomic polls: %d cycles;  lock-every-entry_ro: %d cycles \
            (%.2fx slower)@."
      fast locked
      (float_of_int locked /. float_of_int fast)

  (* (d) lazy vs eager release on DSM: ping-pong an object between two
     cores; the eager variant broadcasts on every exit. *)
  let lazy_eager () =
    Fmt.pr "@.-- lazy vs eager release (DSM ping-pong, 2 cores) --@.";
    let bench ~eager =
      let m = Machine.create { Config.default with cores = 8 } in
      let api = Pmc.Backends.create Pmc.Backends.Dsm m in
      let o = Pmc.Api.alloc_words api ~name:"o" ~words:16 in
      let rounds = 40 in
      for c = 0 to 1 do
        Machine.spawn m ~core:c (fun () ->
            for i = 0 to rounds - 1 do
              (* wait for my turn *)
              ignore
                (Pmc.Api.poll_until api o 0 (fun v ->
                     Int32.to_int v mod 2 = c && Int32.to_int v >= i * 2));
              Pmc.Api.with_x api o (fun () ->
                  let v = Pmc.Api.get_int api o 0 in
                  Pmc.Api.set_int api o 0 (v + 1);
                  if eager then Pmc.Api.flush api o)
            done)
      done;
      Machine.run m;
      Engine.wall_time (Machine.engine m)
    in
    let l = bench ~eager:false and e = bench ~eager:true in
    Fmt.pr "lazy release: %d cycles;  eager (flush-on-exit): %d cycles@." l e;
    Fmt.pr
      "(lazy keeps modifications local until the next acquire — Table II's \
       DSM exit_x; eager pays a broadcast per exit but lets pollers \
       progress without the lock)@."

  let run () =
    section "Ablations";
    me_sweep ();
    locks ();
    ro_rule ();
    lazy_eager ()
end

(* ------------------------------------------------------------------ *)

(* --json: the app × back-end matrix as machine-readable records, one
   JSON object per run with cycles, utilization and the per-category
   stall breakdown — for scripted regression tracking instead of the
   human-oriented tables above. *)
module Json_out = struct
  let result_json (r : Pmc_apps.Runner.result) =
    let s = r.Pmc_apps.Runner.summary in
    let stalls =
      String.concat ","
        (List.map
           (fun c ->
             Printf.sprintf "%S:%d" (Stats.category_name c)
               (Stats.category_cycles s c))
           Stats.categories)
    in
    Printf.sprintf
      "{\"app\":%S,\"backend\":%S,\"cores\":%d,\"scale\":%d,\"cycles\":%d,\
       \"utilization\":%.4f,\"instructions\":%d,\"ok\":%b,\"stalls\":{%s}}"
      r.Pmc_apps.Runner.app
      (Pmc.Backends.to_string r.Pmc_apps.Runner.backend)
      r.Pmc_apps.Runner.cores r.Pmc_apps.Runner.scale r.Pmc_apps.Runner.wall
      (Stats.utilization s) s.Stats.instructions
      (Pmc_apps.Runner.ok r) stalls

  let run ~cores ~scale () =
    let cfg = { Config.default with cores } in
    let first = ref true in
    print_string "[";
    List.iter
      (fun app ->
        List.iter
          (fun backend ->
            let record =
              match Pmc_apps.Runner.run ~cfg app ~backend ~scale with
              | r -> result_json r
              | exception exn ->
                  (* e.g. a back-end capacity limit at this geometry; keep
                     the stream valid and the rest of the matrix running *)
                  Printf.sprintf
                    "{\"app\":%S,\"backend\":%S,\"cores\":%d,\"scale\":%d,\
                     \"error\":%S}"
                    app.Pmc_apps.Runner.name
                    (Pmc.Backends.to_string backend)
                    cores scale (Printexc.to_string exn)
            in
            if not !first then print_string ",";
            first := false;
            print_string ("\n  " ^ record))
          Pmc.Backends.all)
      Pmc_apps.Registry.all;
    print_string "\n]\n"
end

let all_sections =
  [
    ("fig1", Fig1.run);
    ("models", Models_cmp.run);
    ("table2", Table2.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("scaling", Scaling.run);
    ("ablate", Ablations.run);
  ]

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: l -> l in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  if json then Json_out.run ~cores:16 ~scale:32 ()
  else begin
    let requested = match args with [] -> None | l -> Some l in
    List.iter
      (fun (name, run) ->
        match requested with
        | Some l when not (List.mem name l) -> ()
        | _ -> run ())
      all_sections;
    Fmt.pr "@.done.@."
  end
