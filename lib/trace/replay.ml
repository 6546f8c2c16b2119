(* Lowering of a captured trace into the formal model's history language,
   so that *actual* back-end runs — not just hand-built unit-test traces —
   are mechanically validated PMC-consistent by [Pmc_model.History.check].

   The mapping follows the model's word-granular view (the same one the
   integration tests use):

     - each (object, word) pair is one model location;
     - entry_x / exit_x become acquire / release of every word of the
       object (the object's lock implements ≺S for all of them);
     - entry_ro / exit_ro become the model's read-only acquire / release:
       the same ≺S edges, without the mutual-exclusion bookkeeping.  The
       edges matter — a reader synchronizing only through an RO scope
       (e.g. neighbour strips after a barrier) would otherwise have no
       ordered-before writes and every observed value would look
       unreadable;
     - word accesses map one to one, carrying the observed value;
     - fences map to the model's fence;
     - initialization pokes establish each location's initial value,
       passed to the checker as [~init] (the model treats it as a write
       ordered before every operation);
     - byte accesses, lock, NoC, cache and task events are back-end
       mechanics below the model's vocabulary and are skipped.

   [verdict Model] replays the lowered history through the Table-I
   transition and reports every violation: a value some read returned
   that was not in its readable set (Def. 12), non-monotonic reads,
   broken mutual exclusion, cyclic ≺. *)

open Pmc_model

type lowering = {
  events : History.event list;
  locs : int;            (* distinct model locations *)
  init : int -> int;     (* initial value of each location (pokes) *)
  skipped : int;         (* trace events with no model counterpart *)
}

let lower (trace : Event.t list) : lowering =
  let locs = Hashtbl.create 64 in
  let next_loc = ref 0 in
  let loc_of (o : Event.obj) word =
    let key = (o.Event.id, word) in
    match Hashtbl.find_opt locs key with
    | Some l -> l
    | None ->
        let l = !next_loc in
        incr next_loc;
        Hashtbl.add locs key l;
        l
  in
  let skipped = ref 0 in
  let inits = Hashtbl.create 64 in
  let out = ref [] in
  let push e = out := e :: !out in
  List.iter
    (fun (e : Event.t) ->
      let proc = e.Event.core in
      match e.Event.kind with
      | Event.Annot { ann = Event.Entry_x; obj = Some o } ->
          for w = 0 to o.Event.words - 1 do
            push (History.E_acquire { proc; loc = loc_of o w })
          done
      | Event.Annot { ann = Event.Exit_x; obj = Some o } ->
          for w = 0 to o.Event.words - 1 do
            push (History.E_release { proc; loc = loc_of o w })
          done
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          for w = 0 to o.Event.words - 1 do
            push (History.E_acquire_ro { proc; loc = loc_of o w })
          done
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } ->
          for w = 0 to o.Event.words - 1 do
            push (History.E_release_ro { proc; loc = loc_of o w })
          done
      | Event.Annot { ann = Event.Fence; _ } ->
          push (History.E_fence { proc })
      | Event.Read { obj; word; value } ->
          push
            (History.E_read
               { proc; loc = loc_of obj word; value = Int32.to_int value })
      | Event.Write { obj; word; value } ->
          push
            (History.E_write
               { proc; loc = loc_of obj word; value = Int32.to_int value })
      | Event.Init { obj; word; value } ->
          Hashtbl.replace inits (loc_of obj word) (Int32.to_int value)
      | Event.Annot _ -> ()
      | Event.Read8 _ | Event.Write8 _ | Event.Lock _ | Event.Noc_post _
      | Event.Cache_maint _ | Event.Task _ | Event.Fault _ ->
          incr skipped)
    trace;
  let init loc = Option.value ~default:0 (Hashtbl.find_opt inits loc) in
  { events = List.rev !out; locs = !next_loc; init; skipped = !skipped }

(* ---------------- the verdict rule ---------------- *)

(* Every check of a recorded run goes through [verdict], so one rule
   decides when a trace may be judged at all: a ring overflow loses
   acquire, init or access events, and any race or violation found in
   what survived could be an artifact of the loss — such a trace is
   inconclusive, never guilty. *)

type _ check =
  | Model : History.violation check
  | Races : Racecheck.race check

type inconclusive = Dropped of int

type 'a verdict =
  | Consistent
  | Violations of 'a list
  | Inconclusive of inconclusive

let verdict (type a) (check : a check) ~cores ~dropped (trace : Event.t list)
    : a verdict =
  if dropped > 0 then Inconclusive (Dropped dropped)
  else
    let found : a list =
      match check with
      | Model ->
          let l = lower trace in
          let report =
            History.check ~init:l.init ~procs:cores ~locs:(max 1 l.locs)
              l.events
          in
          report.History.violations
      | Races -> Racecheck.check ~cores trace
    in
    match found with [] -> Consistent | l -> Violations l

let pp_inconclusive ppf (Dropped n) = Fmt.pf ppf "%d events dropped" n
