(* Crash-consistency checker for the far-memory tier.

   One crash experiment runs a registered application on the [farmem]
   back-end with a seed-derived power cut armed ([Config.crash]), lets
   the cut kill every tile mid-run, and then judges what the durable
   image left behind:

     1. run the workload under a trace recorder until [Engine.Power_cut]
        (or completion, if the cut cycle lands past the wall);
     2. snapshot the durable image ([Farmem.image]) of the crashed
        machine — exactly the media bytes, the device cache is lost;
     3. restore the image into a fresh device and replay recovery
        ([Farmem.recover]): committed redo-log slots are re-applied,
        uncommitted ones discarded;
     4. torn-object check: every shared object's recovered payload must
        equal the state after its k-th publication, where k is the
        object's recovered publication count — any [exit_x]/[flush] is
        fully visible or fully absent, never a byte mix;
     5. durable-prefix check: the committed prefix of the recorded trace
        (kept scopes truncated at their last committed publication,
        uncommitted scopes dropped, incomplete read-only scopes dropped)
        must replay PMC-consistent through [Pmc_model.History].

   Soundness of the expected-bytes reconstruction: the device serves
   reads from durable media only, commits hold the object lock through
   their last barrier, and a run contains at most one cut — so the
   durable payload at any instant is exactly the last committed
   publication, and the k-th publication's bytes are the initialization
   pokes plus every recorded write up to the k-th publication event.

   The publication count is read from the recovered media, NOT counted
   from [Exit_x] trace events: the cut can land after a commit's final
   barrier but before the annotation event is emitted, in which case the
   commit is durable yet invisible in the trace (the "in-flight"
   publication).  Such a scope is kept whole in the prefix and closed
   with a synthesized [Exit_x].

   With [Config.farmem_log] off the back-end publishes word by word with
   a barrier after each word — deliberately tearable; the checker must
   (and the tests verify it does) catch the resulting mixes. *)

open Pmc_sim
module Event = Pmc_trace.Event

type obj_check = {
  obj_name : string;
  words : int;
  committed : int;   (* durable publication count k (recovered media) *)
  published : int;   (* publication events recorded in the trace *)
  in_flight : bool;  (* k = published + 1: commit durable, event unsent *)
  torn_words : int;  (* payload words differing from publication k *)
}

type verdict =
  | Completed       (* the cut landed past the wall; full-run checks clean *)
  | Recovered       (* cut fired; no torn object, durable prefix consistent *)
  | Torn of { objects : int; words : int }
  | Prefix_inconsistent of int  (* model violations in the durable prefix *)
  | Check_error of string       (* the experiment itself failed *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  window : int;        (* cut window the schedule was drawn from *)
  cut : int option;    (* cycle the cut fired at, [None] if it never did *)
  log : bool;          (* redo log armed ([Config.farmem_log]) *)
  verdict : verdict;
  wall : int;
  objects : obj_check list;
  recovery : Farmem.recovery option;
  events : int;
  dropped : int;
  replayed : bool;     (* the durable-prefix model replay ran *)
}

let acceptable = function
  | Completed | Recovered -> true
  | Torn _ | Prefix_inconsistent _ | Check_error _ -> false

(* ---------------- durable-image object checks ---------------- *)

(* Pair trace object descriptors with the device's allocation directory:
   the back-end allocates far memory inside [Shared.make]'s id order and
   ids restart at 0 every run, so directory entry [i] is object id [i]. *)
let header_bytes = Pmc.Farmem.header_bytes

type obj_state = {
  o_name : string;
  o_words : int;
  o_addr : int;              (* header address; payload at [+8] *)
  expected : Bytes.t;        (* reconstructed publication-k payload *)
  mutable pubs_total : int;  (* publication events in the whole trace *)
  mutable k : int;           (* durable publication count *)
  mutable o_in_flight : bool;
  mutable pubs_seen : int;   (* walk state: publications passed so far *)
  mutable frozen : bool;     (* walk state: past publication k *)
}

let set_word_le b word v =
  Bytes.set b (4 * word) (Char.chr (v land 0xff));
  Bytes.set b ((4 * word) + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b ((4 * word) + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b ((4 * word) + 3) (Char.chr ((v lsr 24) land 0xff))

(* Reconstruct, per object, the payload bytes of its k-th publication:
   initialization pokes, then every recorded write in trace order until
   the k-th publication event freezes the object ([in_flight] objects
   never freeze — their last commit includes every recorded write). *)
let reconstruct_expected (states : obj_state array)
    (trace : Event.t list) =
  let st (o : Event.obj) =
    if o.Event.id < Array.length states then Some states.(o.Event.id)
    else None
  in
  let refreeze s =
    if (not s.o_in_flight) && s.pubs_seen >= s.k then s.frozen <- true
  in
  Array.iter (fun s -> refreeze s) states;
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Init { obj; word; value } ->
          (* pokes are durable by definition and precede every run *)
          Option.iter
            (fun s -> set_word_le s.expected word (Int32.to_int value land 0xffffffff))
            (st obj)
      | Event.Write { obj; word; value } ->
          Option.iter
            (fun s ->
              if not s.frozen then
                set_word_le s.expected word (Int32.to_int value land 0xffffffff))
            (st obj)
      | Event.Write8 { obj; byte; value } ->
          Option.iter
            (fun s ->
              if not s.frozen then
                Bytes.set s.expected byte (Char.chr (value land 0xff)))
            (st obj)
      | Event.Annot { ann = Event.Exit_x | Event.Flush; obj = Some o } ->
          Option.iter
            (fun s ->
              s.pubs_seen <- s.pubs_seen + 1;
              refreeze s)
            (st o)
      | _ -> ())
    trace

let torn_words_of (dev : Farmem.t) (s : obj_state) =
  let torn = ref 0 in
  for w = 0 to s.o_words - 1 do
    let media = Farmem.peek_u32 dev (s.o_addr + header_bytes + (4 * w)) in
    let expect =
      Char.code (Bytes.get s.expected (4 * w))
      lor (Char.code (Bytes.get s.expected ((4 * w) + 1)) lsl 8)
      lor (Char.code (Bytes.get s.expected ((4 * w) + 2)) lsl 16)
      lor (Char.code (Bytes.get s.expected ((4 * w) + 3)) lsl 24)
    in
    if media <> expect then incr torn
  done;
  !torn

(* ---------------- durable-prefix construction ---------------- *)

(* The committed prefix of a crashed trace:
     - initialization events are kept (pokes are durable);
     - exclusive-scope events of an object are kept up to and including
       its k-th publication event; a scope cut there by a [flush] (or an
       in-flight scope, which has no terminal event at all) is closed
       with a synthesized [Exit_x] so the model sees a balanced scope;
     - scopes that committed nothing — including their reads — are
       dropped: nothing they did was promised to anyone;
     - read-only scopes are kept only when complete (entry and exit both
       recorded); their reads saw durable media, which the kept writes
       explain;
     - everything below the model's vocabulary (locks, NoC, cache
       maintenance, tasks, faults) passes through untouched — the
       lowering skips it anyway. *)
let durable_prefix (states : obj_state array) (trace : Event.t list) :
    Event.t list =
  let n = Array.length states in
  let arr = Array.of_list trace in
  (* pass 1: which read-only scopes complete?  [ro_keep.(i)] is set for
     every event index belonging to a complete RO scope *)
  let ro_keep = Array.make (Array.length arr) false in
  let ro_open = Hashtbl.create 16 in
  (* (obj, core) -> reverse list of member indices *)
  Array.iteri
    (fun i (e : Event.t) ->
      let key (o : Event.obj) = (o.Event.id, e.Event.core) in
      match e.Event.kind with
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          Hashtbl.replace ro_open (key o) [ i ]
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } -> (
          match Hashtbl.find_opt ro_open (key o) with
          | Some members ->
              List.iter (fun j -> ro_keep.(j) <- true) (i :: members);
              Hashtbl.remove ro_open (key o)
          | None -> ())
      | Event.Read { obj; _ } | Event.Read8 { obj; _ } -> (
          match Hashtbl.find_opt ro_open (key obj) with
          | Some members -> Hashtbl.replace ro_open (key obj) (i :: members)
          | None -> ())
      | _ -> ())
    arr;
  (* pass 2: stream the prefix.  [pubs_seen]/[frozen] restart here *)
  Array.iter
    (fun s ->
      s.pubs_seen <- 0;
      s.frozen <- (not s.o_in_flight) && s.k <= 0)
    states;
  let active_x = Array.make n None in   (* object id -> Some holder core *)
  let last_kept = Array.make n None in  (* object id -> Some (core, time, seq) *)
  let in_ro = Hashtbl.create 16 in      (* (obj id, core) active RO scope *)
  let out = ref [] in
  let push e = out := e :: !out in
  let synth_exit id ~core ~time ~seq =
    let s = states.(id) in
    push
      {
        Event.seq;
        time;
        core;
        kind =
          Event.Annot
            {
              ann = Event.Exit_x;
              obj =
                Some
                  {
                    Event.id;
                    name = s.o_name;
                    words = s.o_words;
                    bytes = 4 * s.o_words;
                  };
            };
      }
  in
  Array.iteri
    (fun i (e : Event.t) ->
      let core = e.Event.core in
      let known (o : Event.obj) = o.Event.id < n in
      let keep_mark (o : Event.obj) =
        push e;
        last_kept.(o.Event.id) <- Some (core, e.Event.time, e.Event.seq)
      in
      match e.Event.kind with
      | Event.Init _ -> push e
      | Event.Annot { ann = Event.Entry_x; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          active_x.(o.Event.id) <- Some core;
          if not s.frozen then keep_mark o
      | Event.Annot { ann = Event.Exit_x; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          active_x.(o.Event.id) <- None;
          if not s.frozen then begin
            push e;
            last_kept.(o.Event.id) <- None
          end;
          s.pubs_seen <- s.pubs_seen + 1;
          if (not s.o_in_flight) && s.pubs_seen >= s.k then s.frozen <- true
      | Event.Annot { ann = Event.Flush; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          let was_frozen = s.frozen in
          if not was_frozen then keep_mark o;
          s.pubs_seen <- s.pubs_seen + 1;
          if (not s.o_in_flight) && s.pubs_seen >= s.k then begin
            s.frozen <- true;
            (* the scope's last committed publication is this flush:
               close the acquire for the model and drop the rest *)
            if not was_frozen then begin
              synth_exit o.Event.id ~core ~time:e.Event.time ~seq:e.Event.seq;
              last_kept.(o.Event.id) <- None
            end
          end
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          if ro_keep.(i) then push e;
          if known o then Hashtbl.replace in_ro (o.Event.id, core) ()
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } ->
          if ro_keep.(i) then push e;
          Hashtbl.remove in_ro (o.Event.id, core)
      | Event.Read { obj; _ } | Event.Read8 { obj; _ } ->
          if Hashtbl.mem in_ro (obj.Event.id, core) then begin
            if ro_keep.(i) then push e
          end
          else if
            known obj
            && (not states.(obj.Event.id).frozen)
            && active_x.(obj.Event.id) = Some core
          then keep_mark obj
      | Event.Write { obj; _ } | Event.Write8 { obj; _ } ->
          if
            known obj
            && (not states.(obj.Event.id).frozen)
            && active_x.(obj.Event.id) = Some core
          then keep_mark obj
      | Event.Annot _ -> push e
      | Event.Lock _ | Event.Noc_post _ | Event.Cache_maint _
      | Event.Task _ | Event.Fault _ ->
          push e)
    arr;
  (* close in-flight scopes: the commit is durable, its terminal event
     never made it into the trace *)
  Array.iteri
    (fun id s ->
      if not s.frozen then
        match last_kept.(id) with
        | Some (core, time, seq) when active_x.(id) <> None || s.o_in_flight
          ->
            synth_exit id ~core ~time ~seq
        | _ -> ())
    states;
  List.rev !out

(* ---------------- one experiment ---------------- *)

let base_cfg ~log ~topology ~cores =
  { Config.default with cores; topology; farmem_log = log }

(* The cut window is the run's own wall clock, learned from a fault-free
   twin — the crash config leaves the access-plane fault path disarmed,
   so the pre-cut timeline is the fault-free timeline. *)
let window ~log ~topology (a : Runner.app) ~backend ~cores ~scale =
  let r = Runner.run ~cfg:(base_cfg ~log ~topology ~cores) a ~backend ~scale in
  max 1 r.Runner.wall

let crash_one ?(log = true) ~window ?(topology = Topology.Star)
    (a : Runner.app) ~backend ~cores ~scale ~seed : report =
  let window = max 1 window in
  let cfg = Config.crash ~seed ~window (base_cfg ~log ~topology ~cores) in
  let outcome, rec_ = Runner.run_traced ~cfg a ~backend ~scale in
  let machine = Pmc.Api.machine (Pmc_trace.Recorder.api rec_) in
  let mk_report ~cut ~verdict ~objects ~recovery ~replayed =
    {
      app = a.Runner.name; backend; cores; scale; seed; window; cut; log;
      verdict; wall = Engine.wall_time (Machine.engine machine); objects;
      recovery; events = Pmc_trace.Recorder.recorded rec_;
      dropped = Pmc_trace.Recorder.dropped_total rec_; replayed;
    }
  in
  let fail msg =
    mk_report ~cut:None ~verdict:(Check_error msg) ~objects:[] ~recovery:None
      ~replayed:false
  in
  let run_outcome =
    match outcome with
    | Ok _ -> Ok None
    | Error (Runner.Power_cut cycle) -> Ok (Some cycle)
    | Error (Runner.Typed c) ->
        Error (Printf.sprintf "typed error: %s" (Pmc_error.to_string c))
    | Error stop -> Error (Runner.stop_to_string stop)
  in
  match run_outcome with
  | Error msg -> fail msg
  | Ok cut -> (
      match Machine.farmem_opt machine with
      | None ->
          fail
            (Printf.sprintf "backend %s has no far-memory tier"
               (Pmc.Backends.to_string backend))
      | Some crashed_dev ->
          if Pmc_trace.Recorder.dropped_total rec_ > 0 then
            fail "trace ring overflow: prefix reconstruction unsound"
          else begin
            (* 2–3: snapshot the durable image, restore, replay recovery *)
            let img = Farmem.image crashed_dev in
            let fresh =
              Farmem.create ~data_bytes:cfg.Config.farmem_bytes
                ~word_occupancy:cfg.Config.farmem_word_occupancy ~slots:cores
            in
            Farmem.restore fresh img;
            let recovery = Farmem.recover fresh in
            let trace = Pmc_trace.Recorder.events rec_ in
            (* device directory entry i is object id i (ids restart at 0
               each run and the back-end allocates inside Shared.make) *)
            let allocs = Array.of_list (Farmem.allocs crashed_dev) in
            let states =
              Array.map
                (fun (name, addr, bytes) ->
                  let words = (bytes - header_bytes) / 4 in
                  {
                    o_name = name;
                    o_words = words;
                    o_addr = addr;
                    expected = Bytes.make (4 * words) '\000';
                    pubs_total = 0;
                    k = Farmem.peek_u32 fresh addr;
                    o_in_flight = false;
                    pubs_seen = 0;
                    frozen = false;
                  })
                allocs
            in
            (* publication totals, then classify in-flight commits *)
            List.iter
              (fun (e : Event.t) ->
                match e.Event.kind with
                | Event.Annot
                    { ann = Event.Exit_x | Event.Flush; obj = Some o }
                  when o.Event.id < Array.length states ->
                    let s = states.(o.Event.id) in
                    s.pubs_total <- s.pubs_total + 1
                | _ -> ())
              trace;
            let anomaly = ref None in
            Array.iter
              (fun s ->
                if s.k = s.pubs_total + 1 then s.o_in_flight <- true
                else if s.k > s.pubs_total + 1 then
                  anomaly :=
                    Some
                      (Printf.sprintf
                         "object %s: durable count %d exceeds %d recorded \
                          publications + 1"
                         s.o_name s.k s.pubs_total))
              states;
            match !anomaly with
            | Some msg -> fail msg
            | None ->
                (* 4: torn-object check against publication k *)
                reconstruct_expected states trace;
                let objects =
                  Array.to_list
                    (Array.map
                       (fun s ->
                         {
                           obj_name = s.o_name;
                           words = s.o_words;
                           committed = s.k;
                           published = s.pubs_total;
                           in_flight = s.o_in_flight;
                           torn_words = torn_words_of fresh s;
                         })
                       states)
                in
                let torn_objs =
                  List.filter (fun o -> o.torn_words > 0) objects
                in
                if torn_objs <> [] then
                  mk_report ~cut
                    ~verdict:
                      (Torn
                         {
                           objects = List.length torn_objs;
                           words =
                             List.fold_left
                               (fun acc o -> acc + o.torn_words)
                               0 torn_objs;
                         })
                    ~objects ~recovery:(Some recovery) ~replayed:false
                else begin
                  (* 5: the durable prefix must be PMC-consistent *)
                  let prefix = durable_prefix states trace in
                  let clean =
                    match cut with None -> Completed | Some _ -> Recovered
                  in
                  let report verdict ~replayed =
                    mk_report ~cut ~verdict ~objects ~recovery:(Some recovery)
                      ~replayed
                  in
                  match
                    Pmc_trace.Replay.verdict Pmc_trace.Replay.Model ~cores
                      ~dropped:0 prefix
                  with
                  | Pmc_trace.Replay.Consistent -> report clean ~replayed:true
                  | Pmc_trace.Replay.Violations vs ->
                      report (Prefix_inconsistent (List.length vs))
                        ~replayed:true
                  | Pmc_trace.Replay.Inconclusive i ->
                      (* unreachable — a dropped trace failed above — but
                         an unjudged prefix must never pass *)
                      report
                        (Check_error
                           (Fmt.str "durable prefix not judged: %a"
                              Pmc_trace.Replay.pp_inconclusive i))
                        ~replayed:false
                end
          end)

(* ---------------- sweep summaries ---------------- *)

type sweep = {
  reports : report list;  (* in run order *)
  total : int;
  cuts : int;             (* experiments whose cut actually fired *)
  recovered : int;
  completed : int;
  torn : int;
  inconsistent : int;
  errors : int;
}

let summarize (reports : report list) : sweep =
  let count p = List.length (List.filter p reports) in
  {
    reports;
    total = List.length reports;
    cuts = count (fun r -> r.cut <> None);
    recovered = count (fun r -> r.verdict = Recovered);
    completed = count (fun r -> r.verdict = Completed);
    torn = count (fun r -> match r.verdict with Torn _ -> true | _ -> false);
    inconsistent =
      count (fun r ->
          match r.verdict with Prefix_inconsistent _ -> true | _ -> false);
    errors =
      count (fun r ->
          match r.verdict with Check_error _ -> true | _ -> false);
  }

(* ---------------- printing ---------------- *)

let pp_verdict ppf = function
  | Completed -> Fmt.pf ppf "completed (cut past wall)"
  | Recovered -> Fmt.pf ppf "recovered"
  | Torn { objects; words } ->
      Fmt.pf ppf "TORN: %d object(s), %d word(s)" objects words
  | Prefix_inconsistent n ->
      Fmt.pf ppf "INCONSISTENT: %d violation(s) in the durable prefix" n
  | Check_error msg -> Fmt.pf ppf "ERROR: %s" msg

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-12s %-6s seed=%-5d %s wall=%-9d objs=%d %a%s" r.app
    (Pmc.Backends.to_string r.backend)
    r.seed
    (match r.cut with
    | Some c -> Printf.sprintf "cut=%-9d" c
    | None -> Printf.sprintf "cut=%-9s" "-")
    r.wall (List.length r.objects) pp_verdict r.verdict
    (if r.replayed then " replay=ok" else "")

let pp_sweep ppf (s : sweep) =
  Fmt.pf ppf
    "%d experiments: %d cuts injected, %d recovered, %d completed, %d torn, \
     %d inconsistent, %d errors"
    s.total s.cuts s.recovered s.completed s.torn s.inconsistent s.errors
