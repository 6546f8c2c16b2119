(* pmc_trace subsystem tests: recorder bookkeeping, race-detector
   soundness (qcheck property: DRF programs are never flagged, the
   unannotated flag program always is), model replay of recorded runs
   (apps × back-ends must be PMC-consistent), and the Chrome trace-event
   export. *)

open Pmc_sim

let cfg = { Config.small with cores = 4 }

(* ---------------- fixture programs ---------------- *)

(* Record a two-core run of [prog : api -> data -> flag -> unit]. *)
let record_pair ?(check = true) ?capacity prog =
  let m = Machine.create { Config.small with cores = 2 } in
  let api = Pmc.Backends.create ~check Pmc.Backends.Nocc m in
  let rec_ = Pmc_trace.Recorder.attach ?capacity api in
  let data = Pmc.Api.alloc_words api ~name:"data" ~words:2 in
  let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
  prog m api data flag;
  Machine.run m;
  rec_

(* The annotated Fig. 6 publish/consume — DRF by construction. *)
let annotated_prog m api data flag =
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
  Machine.spawn m ~core:1 (fun () -> ignore (Pmc.Msg.recv api ~data ~flag))

(* The same program with the annotations stripped — racy everywhere. *)
let racy_prog m api data flag =
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Api.set api data 0 42l;
      Pmc.Api.set api data 1 7l;
      Pmc.Api.set api flag 0 1l);
  Machine.spawn m ~core:1 (fun () ->
      while Pmc.Api.get api flag 0 <> 1l do
        Engine.idle (Machine.engine m) 16
      done;
      ignore (Pmc.Api.get api data 0);
      ignore (Pmc.Api.get api data 1))

(* ---------------- recorder ---------------- *)

let test_recorder_basic () =
  let rec_ = record_pair annotated_prog in
  let events = Pmc_trace.Recorder.events rec_ in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  Alcotest.(check int) "nothing dropped" 0
    (Pmc_trace.Recorder.dropped_total rec_);
  Alcotest.(check int) "recorded = |events|"
    (List.length events)
    (Pmc_trace.Recorder.recorded rec_);
  (* the merged timeline carries strictly increasing (hence unique) seq *)
  let seqs = List.map (fun (e : Pmc_trace.Event.t) -> e.seq) events in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "seq strictly increasing" true (increasing seqs)

let test_recorder_drops () =
  let rec_ = record_pair ~capacity:8 annotated_prog in
  Alcotest.(check bool) "drops counted" true
    (Pmc_trace.Recorder.dropped_total rec_ > 0);
  (* surviving events per core ≤ capacity, on both cores *)
  Alcotest.(check bool) "rings bounded" true
    (Pmc_trace.Recorder.recorded rec_ <= 8 * 2)

let test_recorder_detach () =
  let rec_ = record_pair annotated_prog in
  let n = Pmc_trace.Recorder.recorded rec_ in
  Pmc_trace.Recorder.detach rec_;
  (* a fresh op after detach must not be recorded *)
  let api = Pmc_trace.Recorder.api rec_ in
  let o = Pmc.Api.alloc_words api ~name:"post" ~words:1 in
  Pmc.Api.poke api o 0 1l;
  Alcotest.(check int) "no recording after detach" n
    (Pmc_trace.Recorder.recorded rec_)

(* ---------------- race detector ---------------- *)

let test_race_reported () =
  let rec_ = record_pair ~check:false racy_prog in
  let races =
    Pmc_trace.Racecheck.check ~cores:2 (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check bool) "races found" true (races <> []);
  (* the data-word race must be among them, write by core 0 vs read by
     core 1, with both conflicting accesses identified *)
  let on_data =
    List.filter
      (fun (r : Pmc_trace.Racecheck.race) ->
        r.obj.Pmc_trace.Event.name = "data")
      races
  in
  Alcotest.(check bool) "race on data object" true (on_data <> []);
  List.iter
    (fun (r : Pmc_trace.Racecheck.race) ->
      let a = r.Pmc_trace.Racecheck.first
      and b = r.Pmc_trace.Racecheck.second in
      Alcotest.(check bool) "different cores" true
        (a.Pmc_trace.Racecheck.core <> b.Pmc_trace.Racecheck.core);
      Alcotest.(check bool) "at least one write" true
        (a.Pmc_trace.Racecheck.is_write || b.Pmc_trace.Racecheck.is_write))
    races

let test_annotated_clean () =
  let rec_ = record_pair annotated_prog in
  let races =
    Pmc_trace.Racecheck.check ~cores:2 (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check int) "annotated program is DRF" 0 (List.length races)

(* qcheck: random annotated producer/consumer configurations are never
   flagged; the same configurations with annotations stripped always
   are.  Generates (words, payload values, extra fence?, reader count). *)
let gen_config =
  QCheck.Gen.(
    let* words = int_range 1 6 in
    let* values = list_size (return words) (map Int32.of_int (int_bound 1000)) in
    let* readers = int_range 1 3 in
    let* extra_fence = bool in
    return (words, Array.of_list values, readers, extra_fence))

let arb_config =
  QCheck.make gen_config ~print:(fun (w, _, r, f) ->
      Printf.sprintf "words=%d readers=%d fence=%b" w r f)

let run_config ~annotated (words, values, readers, extra_fence) =
  let cores = readers + 1 in
  let m = Machine.create { Config.small with cores } in
  let api = Pmc.Backends.create ~check:annotated Pmc.Backends.Nocc m in
  let rec_ = Pmc_trace.Recorder.attach api in
  let data = Pmc.Api.alloc_words api ~name:"data" ~words in
  let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
  if annotated then begin
    Machine.spawn m ~core:0 (fun () ->
        Pmc.Msg.send api ~data ~flag values;
        if extra_fence then Pmc.Api.fence api);
    for r = 1 to readers do
      Machine.spawn m ~core:r (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag))
    done
  end
  else begin
    Machine.spawn m ~core:0 (fun () ->
        Array.iteri (fun i v -> Pmc.Api.set api data i v) values;
        Pmc.Api.set api flag 0 1l);
    for r = 1 to readers do
      Machine.spawn m ~core:r (fun () ->
          while Pmc.Api.get api flag 0 <> 1l do
            Engine.idle (Machine.engine m) 16
          done;
          for i = 0 to words - 1 do
            ignore (Pmc.Api.get api data i)
          done)
    done
  end;
  Machine.run m;
  Pmc_trace.Racecheck.check ~cores (Pmc_trace.Recorder.events rec_)

let prop_drf_never_flagged =
  QCheck.Test.make ~count:30 ~name:"annotated configs never flagged"
    arb_config (fun c -> run_config ~annotated:true c = [])

let prop_racy_always_flagged =
  QCheck.Test.make ~count:30 ~name:"unannotated configs always flagged"
    arb_config (fun c -> run_config ~annotated:false c <> [])

(* ---------------- model replay ---------------- *)

let verdict check ~cores rec_ =
  Pmc_trace.Replay.verdict check ~cores
    ~dropped:(Pmc_trace.Recorder.dropped_total rec_)
    (Pmc_trace.Recorder.events rec_)

let test_replay_apps () =
  List.iter
    (fun (app_name, scale) ->
      let app = Option.get (Pmc_apps.Registry.find app_name) in
      List.iter
        (fun backend ->
          let outcome, rec_ =
            Pmc_apps.Runner.run_traced ~cfg app ~backend ~scale
          in
          let name =
            Printf.sprintf "%s/%s" app.Pmc_apps.Runner.name
              (Pmc.Backends.to_string backend)
          in
          Alcotest.(check bool) (name ^ " checksum") true
            (Pmc_apps.Runner.ok (Pmc_apps.Runner.finished outcome));
          Alcotest.(check int) (name ^ " complete trace") 0
            (Pmc_trace.Recorder.dropped_total rec_);
          Alcotest.(check bool) (name ^ " PMC-consistent") true
            (verdict Pmc_trace.Replay.Model ~cores:cfg.Config.cores rec_
            = Pmc_trace.Replay.Consistent))
        [ Pmc.Backends.Seqcst; Pmc.Backends.Swcc; Pmc.Backends.Dsm;
          Pmc.Backends.Spm ])
    (* stencil at a small scale: its RO-heavy traces are long *)
    [ ("histogram", 8); ("stencil", 4) ]

(* The default 32-core machine: every core writes only a few of the
   served keys, and the checker's frontiers must stay that sparse — one
   row per observer over every (process, location) pair needs gigabytes
   at the default scale. *)
let test_replay_32_cores () =
  let cfg = { Config.default with cores = 32 } in
  let app = Option.get (Pmc_apps.Registry.find "kv_store") in
  let outcome, rec_ =
    Pmc_apps.Runner.run_traced ~cfg app ~backend:Pmc.Backends.Dsm ~scale:8
  in
  Alcotest.(check bool) "checksum" true
    (Pmc_apps.Runner.ok (Pmc_apps.Runner.finished outcome));
  Alcotest.(check int) "complete trace" 0
    (Pmc_trace.Recorder.dropped_total rec_);
  Alcotest.(check bool) "PMC-consistent" true
    (verdict Pmc_trace.Replay.Model ~cores:32 rec_
    = Pmc_trace.Replay.Consistent)

(* A lossy trace is never judged: with a 16-event ring the run below
   overflows, and both checks must come back inconclusive with the
   exact drop count instead of a (spurious) race or violation. *)
let test_lossy_trace_inconclusive () =
  let app = Option.get (Pmc_apps.Registry.find "histogram") in
  let outcome, rec_ =
    Pmc_apps.Runner.run_traced ~capacity:16 ~cfg app
      ~backend:Pmc.Backends.Dsm ~scale:8
  in
  Alcotest.(check bool) "checksum" true
    (Pmc_apps.Runner.ok (Pmc_apps.Runner.finished outcome));
  let dropped = Pmc_trace.Recorder.dropped_total rec_ in
  Alcotest.(check bool) "ring overflowed" true (dropped > 0);
  let cores = cfg.Config.cores in
  let expect =
    Pmc_trace.Replay.Inconclusive (Pmc_trace.Replay.Dropped dropped)
  in
  Alcotest.(check bool) "model check inconclusive" true
    (verdict Pmc_trace.Replay.Model ~cores rec_ = expect);
  Alcotest.(check bool) "race check inconclusive" true
    (verdict Pmc_trace.Replay.Races ~cores rec_ = expect)

let test_replay_lowering () =
  let rec_ = record_pair annotated_prog in
  let l = Pmc_trace.Replay.lower (Pmc_trace.Recorder.events rec_) in
  Alcotest.(check bool) "history events produced" true
    (l.Pmc_trace.Replay.events <> []);
  Alcotest.(check bool) "locations assigned" true
    (l.Pmc_trace.Replay.locs >= 3) (* 2 data words + flag *)

(* ---------------- export ---------------- *)

let test_export_json () =
  let rec_ = record_pair annotated_prog in
  let api = Pmc_trace.Recorder.api rec_ in
  let stats = Machine.stats (Pmc.Api.machine api) in
  let json =
    Pmc_trace.Export.to_string ~stats (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 2
    && String.sub json 0 15 = "{\"traceEvents\":");
  (* structurally: balanced braces/brackets outside strings *)
  let depth = ref 0 and ok = ref true and in_str = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if c = '"' && json.[i - 1] <> '\\' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    json;
  Alcotest.(check bool) "balanced json" true (!ok && !depth = 0);
  (* the annotated run must produce matched scope slices *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "scope slices present" true
    (contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "thread names present" true
    (contains json "thread_name");
  Alcotest.(check bool) "stall counters present" true
    (contains json "\"ph\":\"C\"")

let suite =
  ( "trace",
    [
      Alcotest.test_case "recorder basic" `Quick test_recorder_basic;
      Alcotest.test_case "recorder drops" `Quick test_recorder_drops;
      Alcotest.test_case "recorder detach" `Quick test_recorder_detach;
      Alcotest.test_case "race reported" `Quick test_race_reported;
      Alcotest.test_case "annotated clean" `Quick test_annotated_clean;
      QCheck_alcotest.to_alcotest prop_drf_never_flagged;
      QCheck_alcotest.to_alcotest prop_racy_always_flagged;
      Alcotest.test_case "replay apps x backends" `Slow test_replay_apps;
      Alcotest.test_case "replay kv_store/dsm at 32 cores" `Quick
        test_replay_32_cores;
      Alcotest.test_case "replay lowering" `Quick test_replay_lowering;
      Alcotest.test_case "lossy trace is inconclusive" `Quick
        test_lossy_trace_inconclusive;
      Alcotest.test_case "export json" `Quick test_export_json;
    ] )
