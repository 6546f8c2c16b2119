(* pmc_trace — the tracing subsystem's own CLI.  Tracing, race-checking
   and model-replaying an app run is pmc_demo's job (--trace,
   --race-check, --model-check); this tool holds the rest.

     pmc_trace race-demo
         the seeded-race demonstration: the Fig. 6 flag/data program with
         its annotations stripped, caught by the dynamic detector with
         the two conflicting accesses and their cores — then the
         annotated version of the same program, which is clean;
     pmc_trace dump --app stencil --backend dsm
         print the raw merged event timeline (debugging aid). *)

open Cmdliner
open Pmc_sim

let parse_backend s =
  match Pmc.Backends.of_string s with
  | Some b -> b
  | None ->
      Fmt.epr "unknown backend %S (seqcst|nocc|swcc|dsm|spm|farmem)@." s;
      exit 1

let parse_app s =
  match Pmc_apps.Registry.find s with
  | Some a -> a
  | None ->
      Fmt.epr "unknown app %S; one of: %s@." s
        (String.concat ", " Pmc_apps.Registry.names);
      exit 1

(* ---------------- race-demo ---------------- *)

(* The Fig. 6 flag/data pattern with its annotations stripped (the
   [~check:false] runtime permits it, exactly like writing the program
   without PMC): publisher writes payload then flag, consumer polls the
   flag and reads the payload.  No entry/exit means no ≺S edges, so every
   payload and flag access is a data race — and the detector names the
   two conflicting accesses.  The annotated version is race-free. *)
let race_demo () =
  let go ~annotated =
    let m = Machine.create { Config.small with cores = 2 } in
    let api =
      Pmc.Api.create ~check:annotated
        (Pmc.Backends.make_backend Pmc.Backends.Nocc m)
    in
    let rec_ = Pmc_trace.Recorder.attach api in
    let data = Pmc.Api.alloc_words api ~name:"X" ~words:2 in
    let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
    if annotated then begin
      Machine.spawn m ~core:0 (fun () ->
          Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
      Machine.spawn m ~core:1 (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag))
    end
    else begin
      Machine.spawn m ~core:0 (fun () ->
          (* unannotated: raw writes, no entry/exit, no fence *)
          Pmc.Api.set api data 0 42l;
          Pmc.Api.set api data 1 7l;
          Pmc.Api.set api flag 0 1l);
      Machine.spawn m ~core:1 (fun () ->
          while Pmc.Api.get api flag 0 <> 1l do
            Engine.idle (Machine.engine m) 16
          done;
          ignore (Pmc.Api.get api data 0);
          ignore (Pmc.Api.get api data 1))
    end;
    Machine.run m;
    let events = Pmc_trace.Recorder.events rec_ in
    Pmc_trace.Racecheck.check ~cores:2 events
  in
  Fmt.pr "== Fig. 6 message passing, annotations stripped ==@.";
  (match go ~annotated:false with
  | [] ->
      Fmt.pr "no races detected — UNEXPECTED@.";
      exit 1
  | races ->
      Fmt.pr "%d distinct data race(s) detected:@." (List.length races);
      List.iter (fun r -> Fmt.pr "  %a@." Pmc_trace.Racecheck.pp_race r) races);
  Fmt.pr "@.== the same program, properly annotated ==@.";
  (match go ~annotated:true with
  | [] -> Fmt.pr "no data races — the annotations carry every ordering@."
  | races ->
      Fmt.pr "%d race(s) — UNEXPECTED@." (List.length races);
      exit 1)

(* ---------------- dump ---------------- *)

let dump_cmd app backend cores scale capacity limit =
  let app = parse_app app and backend = parse_backend backend in
  let cfg = { Config.default with cores } in
  let _, rec_ =
    Pmc_apps.Runner.run_traced ?capacity ~cfg app ~backend ~scale
  in
  let events = Pmc_trace.Recorder.events rec_ in
  let n = List.length events in
  List.iteri
    (fun i e -> if i < limit then Fmt.pr "%a@." Pmc_trace.Event.pp e)
    events;
  if n > limit then Fmt.pr "... (%d more events)@." (n - limit)

(* ---------------- cmdliner plumbing ---------------- *)

let app_t =
  Arg.(value & opt string "raytrace" & info [ "app"; "a" ] ~doc:"Application.")

let backend_t =
  Arg.(
    value & opt string "swcc"
    & info [ "backend"; "b" ] ~doc:"seqcst, nocc, swcc, dsm, spm or farmem.")

let cores_t =
  Arg.(value & opt int 8 & info [ "cores"; "c" ] ~doc:"Number of tiles.")

let scale_t =
  Arg.(value & opt int 32 & info [ "scale"; "s" ] ~doc:"Workload scale.")

let capacity_t =
  Arg.(
    value & opt (some int) None
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Per-core trace ring capacity (default 65536).")

let limit_t =
  Arg.(value & opt int 200 & info [ "limit"; "n" ] ~doc:"Max events to print.")

let race_demo_c =
  Cmd.v
    (Cmd.info "race-demo"
       ~doc:"Seeded data race caught by the dynamic detector")
    Term.(const race_demo $ const ())

let dump_c =
  Cmd.v (Cmd.info "dump" ~doc:"Print the merged event timeline")
    Term.(
      const dump_cmd $ app_t $ backend_t $ cores_t $ scale_t $ capacity_t
      $ limit_t)

let cmd =
  Cmd.group
    (Cmd.info "pmc_trace"
       ~doc:
         "Seeded race-detector demonstration and raw event timelines of \
          PMC runs")
    [ race_demo_c; dump_c ]

let () = exit (Cmd.eval cmd)
