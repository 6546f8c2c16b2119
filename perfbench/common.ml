(* What every workload hands the pass loop in main.ml. *)

open Perfbench_util

let now = Unix.gettimeofday

type pass = {
  ops_ms : float list;  (** host latency of each operation of the pass *)
  calib_at : int list;
      (** for each operation, how many calibration samples had been
          taken when it started (see Calib.scale_at) *)
  attempted : int;
  failed : int;
  exact : string;
      (** canonical rendering of the pass's exact outputs (simulated
          cycles, counts, digests): identical on every pass and every
          invocation with the same seed *)
  metrics : (string * float) list;  (** per-layer values of this pass *)
}

module type WORKLOAD = sig
  type ctx

  val setup : seed:int -> Span.t -> ctx
  (** Generate the inputs from [seed], warm up and compute references,
      recording spans around calls into the library.  Called several
      times; the last result is used. *)

  val pass : ctx -> Span.t -> calib:Calib.t -> root:int -> pass
  (** One pass over the workload's fixed inputs.  [root] is the span to
      parent this pass's spans on ([-1] when tracing is off).  The pass
      samples [calib] between its operations, so that the samples span
      the pass as its operations do. *)

  val calib_elasticity : float
  (** How this workload's host times follow the calibration kernel's
      (see Calib.scale), measured as the slope of log pass time over
      log kernel time across passes. *)

  val run_metrics : ctx -> (string * float) list
  (** Per-layer values measured once per run (set-up timings). *)

  val peak_rss_mb : ctx -> float
  (** Peak resident set of the process doing the work. *)

end

let ms_of_s s = s *. 1000.0

(* Everything the benchmark writes: spans, determinism records, the
   serve daemon's socket. *)
let out_dir = Filename.concat "perfbench" "_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* VmHWM of a process, in MiB, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  go ()

let ratio a b = if b = 0.0 then 0.0 else a /. b
