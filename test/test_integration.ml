(* Model-conformance integration tests: run annotated programs on the
   *simulated* back-ends with a trace recorder attached, then judge the
   recorded trace through the one trace-to-verdict rule
   (Pmc_trace.Replay.verdict, which replays it through the formal PMC
   model's history checker, Pmc_model.History).  Whatever the timing of
   caches, NoC and locks does, the values the program observed must be
   explainable by the model — this closes the loop between the paper's
   Section IV (formalism) and Section V (implementations). *)

open Pmc_sim
open Pmc_model

let cfg = { Config.small with cores = 4 }

(* A machine and runtime instance of [kind] with a recorder attached
   before any object is allocated, so the trace holds every init poke. *)
let traced kind =
  let m = Machine.create cfg in
  let rec_ = Pmc_trace.Recorder.attach (Pmc.Backends.create kind m) in
  (m, Pmc_trace.Recorder.api rec_, rec_)

let validate name rec_ =
  match
    Pmc_trace.Replay.verdict Pmc_trace.Replay.Model ~cores:cfg.Config.cores
      ~dropped:(Pmc_trace.Recorder.dropped_total rec_)
      (Pmc_trace.Recorder.events rec_)
  with
  | Pmc_trace.Replay.Consistent -> ()
  | Pmc_trace.Replay.Violations vs ->
      List.iter (fun v -> Fmt.epr "%s: %a@." name History.pp_violation v) vs;
      Alcotest.failf "%s: %d model violation(s)" name (List.length vs)
  | Pmc_trace.Replay.Inconclusive i ->
      Alcotest.failf "%s: inconclusive: %a" name
        Pmc_trace.Replay.pp_inconclusive i

let test_msg_conformance () =
  List.iter
    (fun kind ->
      let m, api, rec_ = traced kind in
      let data = Pmc.Api.alloc_words api ~name:"X" ~words:2 in
      let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
      Machine.spawn m ~core:0 (fun () ->
          Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
      Machine.spawn m ~core:1 (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag));
      Machine.run m;
      validate ("msg/" ^ Pmc.Backends.to_string kind) rec_)
    Pmc.Backends.all

let test_counter_conformance () =
  List.iter
    (fun kind ->
      let m, api, rec_ = traced kind in
      let counter = Pmc.Api.alloc_words api ~name:"ctr" ~words:1 in
      for c = 0 to 3 do
        Machine.spawn m ~core:c (fun () ->
            for _ = 1 to 5 do
              Pmc.Api.with_x api counter (fun () ->
                  let v = Pmc.Api.get_int api counter 0 in
                  Pmc.Api.set_int api counter 0 (v + 1))
            done)
      done;
      Machine.run m;
      Alcotest.(check int)
        (Pmc.Backends.to_string kind ^ ": counter value")
        20
        (Pmc.Api.peek_int api counter 0);
      validate ("counter/" ^ Pmc.Backends.to_string kind) rec_)
    Pmc.Backends.all

let test_fifo_conformance () =
  List.iter
    (fun kind ->
      let m, api, rec_ = traced kind in
      let fifo =
        Pmc.Fifo.create api ~name:"f" ~depth:2 ~elem_words:1 ~readers:1
      in
      Machine.spawn m ~core:0 (fun () ->
          for i = 1 to 8 do
            Pmc.Fifo.push fifo [| Int32.of_int i |]
          done);
      Machine.spawn m ~core:1 (fun () ->
          for _ = 1 to 8 do
            ignore (Pmc.Fifo.pop fifo ~reader:0)
          done);
      Machine.run m;
      validate ("fifo/" ^ Pmc.Backends.to_string kind) rec_)
    [ Pmc.Backends.Seqcst; Pmc.Backends.Swcc; Pmc.Backends.Dsm ]

(* The discipline corollary of Def. 11: with every write lock-wrapped (the
   API enforces it), traced executions are write-write race free. *)
let test_no_write_races () =
  let m, api, rec_ = traced Pmc.Backends.Swcc in
  let a = Pmc.Api.alloc_words api ~name:"a" ~words:1 in
  let b = Pmc.Api.alloc_words api ~name:"b" ~words:1 in
  for c = 0 to 3 do
    Machine.spawn m ~core:c (fun () ->
        for i = 1 to 4 do
          let o = if (c + i) mod 2 = 0 then a else b in
          Pmc.Api.with_x api o (fun () ->
              Pmc.Api.set_int api o 0 ((c * 100) + i))
        done)
  done;
  Machine.run m;
  let l = Pmc_trace.Replay.lower (Pmc_trace.Recorder.events rec_) in
  let r =
    History_oracle.check_reference ~init:l.Pmc_trace.Replay.init ~procs:4
      ~locs:(max 1 l.Pmc_trace.Replay.locs) l.Pmc_trace.Replay.events
  in
  Alcotest.(check bool) "trace validates" true (History_oracle.full_ok r);
  Alcotest.(check bool) "no write-write races" true
    (Observe.race_free r.History_oracle.exec)

let suite =
  ( "integration",
    [
      Alcotest.test_case "msg trace conforms to the model (all back-ends)"
        `Quick test_msg_conformance;
      Alcotest.test_case "locked counter conforms + is exact" `Quick
        test_counter_conformance;
      Alcotest.test_case "fifo trace conforms" `Slow test_fifo_conformance;
      Alcotest.test_case "locked writes leave race-free executions" `Quick
        test_no_write_races;
    ] )
