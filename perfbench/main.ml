(* The repository's benchmark.  One invocation runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   and prints, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  See README.md
   for the workloads, the metrics and how they relate. *)

open Perfbench_util
open Common

let workloads : (string * (module WORKLOAD)) list =
  [
    ("sim-read", (module Sim_wl.Read));
    ("sim-write", (module Sim_wl.Write));
    ("verify", (module Verify_wl));
    ("serve", (module Serve_wl));
  ]

let setup_repeats = 3
let calib_per_setup = 3

let median l = Pct.median (Array.of_list l)

(* The determinism self-check across invocations: the first run of a
   (binary, workload, seed) triple stores its exact outputs; every later
   one must reproduce them byte for byte (diff the files to see what
   moved). *)
let same_as_earlier_invocations ~workload ~seed exact =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat out_dir "exact" in
  mkdir_p dir;
  let file = Filename.concat dir (Printf.sprintf "%s-%s-%d.txt" exe workload seed) in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let stored =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    if stored = exact then true
    else begin
      let oc = open_out_bin (file ^ ".now") in
      output_string oc exact;
      close_out oc;
      false
    end
  end
  else begin
    let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    output_string oc exact;
    close_out oc;
    Sys.rename tmp file;
    true
  end

type timed_pass = { p : pass; seconds : float; minor_words : float; majors : float }
type phase = { passes : timed_pass list; spans : Span.span list; calib : Calib.t }

(* Passes until [seconds] have elapsed, at least two, so that every
   operation's median has two samples. *)
let run_phase pass ~traced ~seconds =
  let spans = Span.create ~on:traced in
  let calib = Calib.create () in
  let t_end = now () +. seconds in
  let rec go acc =
    if List.length acc >= 2 && now () >= t_end then List.rev acc
    else begin
      let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).major_collections in
      let t0 = now () in
      let p =
        Span.record spans ~layer:"bench" ~name:"pass" (fun root ->
            pass spans ~calib ~root)
      in
      let seconds = now () -. t0 in
      (* the sample after the pass's last operation *)
      Calib.sample calib;
      Printf.eprintf "perfbench: %s pass %d: %.4f s\n%!"
        (if traced then "traced" else "untraced") (List.length acc + 1) seconds;
      let minor_words = Gc.minor_words () -. m0 in
      let majors = float_of_int ((Gc.quick_stat ()).major_collections - c0) in
      go ({ p; seconds; minor_words; majors } :: acc)
    end
  in
  let passes = go [] in
  { passes; spans = Span.spans spans; calib }

let ops ph = Array.of_list (List.concat_map (fun t -> t.p.ops_ms) ph.passes)

(* Each operation's median over the passes of [times pass], in ms.
   Every pass runs the same operations in the same order from the same
   state, so the repeats of one operation do the same work; a median
   per operation is steadier against a spell of host noise than one
   over all samples, whose top percentile is a single sample. *)
let op_medians ph times =
  let per_pass = Array.of_list (List.map times ph.passes) in
  let n = Array.fold_left (fun a o -> min a (Array.length o)) max_int per_pass in
  Array.init n (fun i -> Pct.median (Array.map (fun o -> o.(i)) per_pass))

let raw_ms t = Array.of_list t.p.ops_ms

(* Operation times as on the reference host: each scaled by the
   calibration samples taken just before and just after it, to the
   workload's elasticity (see Calib). *)
let scaled_ms ~elasticity ph =
  let samples = Calib.samples ph.calib in
  fun t ->
    Array.of_list
      (List.map2
         (fun ms at -> ms *. Calib.scale_at samples at ~elasticity)
         t.p.ops_ms t.p.calib_at)

let sum_s a = Array.fold_left ( +. ) 0.0 a /. 1000.0

(* Host seconds of one pass. *)
let raw_pass_s ph = sum_s (op_medians ph raw_ms)
let pass_s ~elasticity ph = sum_s (op_medians ph (scaled_ms ~elasticity ph))

(* Median over passes of a per-pass metric; 0 where the workload does
   not reach that layer. *)
let per_pass ph name =
  match List.filter_map (fun t -> List.assoc_opt name t.p.metrics) ph.passes with
  | [] -> 0.0
  | l -> median l

let spans_path ~workload ~seed =
  Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)

(* Self time per layer: per traced pass, except the jobs layer, whose
   only spans are the local runs of one set-up. *)
let layer_metrics ~untraced ~traced ~setup_spans ~run_metrics =
  let n_traced = float_of_int (List.length traced.passes) in
  let self = Span.self_times traced.spans in
  let setup_self = Span.self_times setup_spans in
  let self_s l =
    if l = "jobs" then Option.value ~default:0.0 (List.assoc_opt l setup_self)
    else Option.value ~default:0.0 (List.assoc_opt l self) /. n_traced
  in
  let with_gc ph =
    {
      ph with
      passes =
        List.map
          (fun t ->
            { t with
              p = { t.p with
                    metrics = ("gc.minor_words", t.minor_words)
                              :: ("gc.major_collections", t.majors)
                              :: t.p.metrics } })
          ph.passes;
    }
  in
  let untraced = with_gc untraced in
  let ou = op_medians untraced raw_ms and ot = op_medians traced raw_ms in
  let calib_ms = Pct.median (Calib.samples untraced.calib) *. 1000.0 in
  let derived =
    [
      ("host.calib_ms", calib_ms);
      ("host.raw_pass_s", raw_pass_s untraced);
      ("overhead.pass_s", raw_pass_s traced -. raw_pass_s untraced);
      ("overhead.op_p50_ms", Pct.median ot -. Pct.median ou);
      ("overhead.op_p99_ms",
        Pct.nearest_rank ot ~p:99.0 -. Pct.nearest_rank ou ~p:99.0);
      ("ops.samples", float_of_int (Array.length (ops untraced)));
    ]
    @ List.map (fun l -> (l ^ ".self_s", self_s l)) Metrics.layers
  in
  List.map
    (fun (name, unit, src) ->
      let v =
        match src with
        | Metrics.U -> per_pass untraced name
        | T -> per_pass traced name
        | R -> (
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> Option.value ~default:0.0 (List.assoc_opt name run_metrics))
      in
      (name, unit, v))
    Metrics.per_layer

let run ~workload ~seed ~seconds ~trace =
  let (module W : WORKLOAD) = List.assoc workload workloads in
  (* Each set-up is scaled to reference speed by calibration samples
     taken just before and just after it. *)
  let elasticity = W.calib_elasticity in
  let setups =
    List.init setup_repeats (fun i ->
        let calib = Calib.create () in
        let calibrate () =
          for _ = 1 to calib_per_setup do
            Calib.sample calib
          done
        in
        calibrate ();
        let spans = Span.create ~on:trace in
        let t0 = now () in
        let c = W.setup ~seed spans in
        let t = now () -. t0 in
        calibrate ();
        Printf.eprintf "perfbench: set-up %d: %.4f s\n%!" (i + 1) t;
        (t *. Calib.scale calib ~elasticity, (c, spans)))
  in
  let setup_s = median (List.map fst setups) in
  let ctx, setup_spans = snd (List.nth setups (setup_repeats - 1)) in
  let untraced =
    run_phase (W.pass ctx) ~traced:false
      ~seconds:(if trace then seconds /. 2.0 else seconds)
  in
  let traced =
    if trace then Some (run_phase (W.pass ctx) ~traced:true ~seconds:(seconds /. 2.0))
    else None
  in
  let all = untraced.passes @ Option.fold ~none:[] ~some:(fun t -> t.passes) traced in
  let exact = (List.hd all).p.exact in
  let mismatched = List.length (List.filter (fun t -> t.p.exact <> exact) all) in
  if mismatched > 0 then
    Printf.eprintf "perfbench: %d passes disagree on exact outputs\n%!" mismatched;
  let stable = same_as_earlier_invocations ~workload ~seed exact in
  if not stable then
    Printf.eprintf "perfbench: exact outputs differ from an earlier run of this binary\n%!";
  let attempted = List.fold_left (fun a t -> a + t.p.attempted) 0 all in
  let failed =
    List.fold_left (fun a t -> a + t.p.failed) 0 all
    + mismatched + if stable then 0 else 1
  in
  let metrics =
    match traced with
    | None ->
        let o = op_medians untraced (scaled_ms ~elasticity untraced) in
        [
          ("setup_s", "s", setup_s);
          ("ok_frac", "ratio",
            float_of_int (attempted - min attempted failed) /. float_of_int attempted);
          ("peak_rss_mb", "MiB", W.peak_rss_mb ctx);
          ("pass_s", "s", pass_s ~elasticity untraced);
          ("op_p50_ms", "ms", Pct.median o);
          ("op_p99_ms", "ms", Pct.nearest_rank o ~p:99.0);
        ]
    | Some traced ->
        mkdir_p out_dir;
        let setup_spans = Span.spans setup_spans in
        let oc = open_out (spans_path ~workload ~seed) in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            Span.write_jsonl oc (setup_spans @ traced.spans));
        layer_metrics ~untraced ~traced ~setup_spans ~run_metrics:(W.run_metrics ctx)
  in
  (attempted, failed, metrics)

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-32s %20.6f %s\n" name v unit)
    metrics;
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
             (num v) (Span.json_string unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let daemon = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed (inputs are generated from it)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--serve-daemon", Arg.Set_string daemon,
        "SOCKET internal: run the serve workload's daemon on SOCKET");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !daemon <> "" then Serve_wl.daemon_main !daemon
  else begin
    if not (List.mem_assoc !workload workloads) || !seed < 0 || !seconds < 1
       || (!trace <> 0 && !trace <> 1)
    then begin
      Arg.usage spec usage;
      exit 2
    end;
    let attempted, failed, metrics =
      run ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds)
        ~trace:(!trace = 1)
    in
    List.iter
      (fun (name, _, v) ->
        if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite"))
      metrics;
    print_result ~attempted ~failed metrics
  end
