(* Litmus-test assertions: the complete outcome sets of the standard
   programs under every model's operational semantics — the mechanical
   version of Section IV-E's model-comparison claims, including the Fig. 1
   breakage and the Fig. 6 repair. *)

open Pmc_model

let outcomes m p =
  Lprog.Outcome_set.elements (Litmus.enumerate m p).Litmus.outcomes

let check_outcomes name m p expected =
  Alcotest.(check (slist string String.compare)) name expected (outcomes m p)

(* Fig. 1: SC and PC deliver only 42; CC, Slow and raw PMC also allow the
   stale 0 — the exact bug of the paper's introduction. *)
let test_mp_plain () =
  check_outcomes "SC: only 42" (module Models.Sc) Lprog.mp_plain [ "0 | 42" ];
  check_outcomes "PC: only 42" (module Models.Pc) Lprog.mp_plain [ "0 | 42" ];
  check_outcomes "CC allows stale read (Sec. IV-E: CC is not enough)"
    (module Models.Cc)
    Lprog.mp_plain [ "0 | 0"; "0 | 42" ];
  check_outcomes "Slow allows stale read" (module Models.Slow) Lprog.mp_plain
    [ "0 | 0"; "0 | 42" ];
  check_outcomes "unannotated PMC allows stale read" (module Models.Pmc)
    Lprog.mp_plain [ "0 | 0"; "0 | 42" ]

(* Fences alone (GPO) repair message passing under PMC but not under the
   uniform models, which have no fences. *)
let test_mp_fence () =
  check_outcomes "PMC + fences: only 42" (module Models.Pmc) Lprog.mp_fence
    [ "0 | 42" ];
  check_outcomes "Slow ignores fences" (module Models.Slow) Lprog.mp_fence
    [ "0 | 0"; "0 | 42" ];
  check_outcomes "CC ignores fences" (module Models.Cc) Lprog.mp_fence
    [ "0 | 0"; "0 | 42" ]

(* The fully annotated Fig. 6 program: correct under PMC (and everything
   stronger); still broken under Slow, whose locks transfer no data. *)
let test_mp_annotated () =
  check_outcomes "PMC: annotated MP is exact" (module Models.Pmc)
    Lprog.mp_annotated [ "0 | 42" ];
  check_outcomes "SC agrees" (module Models.Sc) Lprog.mp_annotated
    [ "0 | 42" ];
  check_outcomes "PC agrees" (module Models.Pc) Lprog.mp_annotated
    [ "0 | 42" ];
  check_outcomes "CC agrees (lock sync per location)" (module Models.Cc)
    Lprog.mp_annotated [ "0 | 42" ];
  check_outcomes "Slow still broken (no GDO transfer)" (module Models.Slow)
    Lprog.mp_annotated [ "0 | 0"; "0 | 42" ]

(* Store buffering: (0,0) separates SC from every weaker model. *)
let test_sb () =
  check_outcomes "SC forbids (0,0)" (module Models.Sc) Lprog.sb
    [ "0 | 1"; "1 | 0"; "1 | 1" ];
  List.iter
    (fun m ->
      let r = Litmus.enumerate m Lprog.sb in
      Alcotest.(check bool) "weaker model allows (0,0)" true
        (Litmus.allows r "0 | 0"))
    [ (module Models.Pc : Models.SEM); (module Models.Cc);
      (module Models.Slow); (module Models.Pmc) ]

(* Coherence with one writer: values of one location never go backwards
   (≺P is globally visible) — under every model. *)
let test_coherence_1w () =
  List.iter
    (fun m ->
      let r = Litmus.enumerate m Lprog.coherence_1w in
      Alcotest.(check bool) "no backwards reads: (1,0)" false
        (Litmus.allows r "0,0 | 1,0");
      Alcotest.(check bool) "no backwards reads: (2,1)" false
        (Litmus.allows r "0,0 | 2,1");
      Alcotest.(check bool) "forward reads allowed" true
        (Litmus.allows r "0,0 | 1,2"))
    Models.all

(* Write serialization: CC forces observers to agree on the order of two
   writes; Slow lets them disagree.  The outcome where observer 1 sees
   1-then-2 and observer 2 sees 2-then-1: *)
let test_write_serialization () =
  let disagree = "0,0 | 0,0 | 1,2 | 2,1" in
  let r_cc = Litmus.enumerate (module Models.Cc) Lprog.coherence_2w in
  let r_slow = Litmus.enumerate (module Models.Slow) Lprog.coherence_2w in
  let r_sc = Litmus.enumerate (module Models.Sc) Lprog.coherence_2w in
  Alcotest.(check bool) "SC forbids disagreement" false
    (Litmus.allows r_sc disagree);
  Alcotest.(check bool) "CC forbids disagreement" false
    (Litmus.allows r_cc disagree);
  Alcotest.(check bool) "Slow allows disagreement" true
    (Litmus.allows r_slow disagree)

(* Fig. 4: the reader sees the initial value or the final value, never the
   intermediate one — except under Slow, which leaks it. *)
let test_exclusive_fig4 () =
  check_outcomes "PMC: 0 or 2" (module Models.Pmc) Lprog.exclusive_fig4
    [ "0 | 0"; "2 | 0" ];
  check_outcomes "SC: 0 or 2" (module Models.Sc) Lprog.exclusive_fig4
    [ "0 | 0"; "2 | 0" ];
  let r = Litmus.enumerate (module Models.Slow) Lprog.exclusive_fig4 in
  Alcotest.(check bool) "Slow leaks the intermediate 1" true
    (Litmus.allows r "1 | 0")

(* The strength hierarchy of Section II/IV-E on uniform programs:
   outcomes(SC) ⊆ outcomes(PC) ⊆ outcomes(CC) ⊆ outcomes(Slow). *)
let test_strength_chain () =
  Alcotest.(check bool) "SC ⊆ PC ⊆ CC ⊆ Slow" true
    (Litmus.strength_chain_holds
       [ Lprog.mp_plain; Lprog.sb; Lprog.coherence_1w; Lprog.coherence_2w ])

(* PMC with full annotations simulates SC for DRF programs (Sec. IV-E). *)
let test_drf_sc () =
  Alcotest.(check bool) "locked_exchange is DRF" true
    (Drf.is_drf Lprog.locked_exchange);
  Alcotest.(check bool) "exclusive_fig4 is DRF" true
    (Drf.is_drf Lprog.exclusive_fig4);
  Alcotest.(check bool) "mp_plain is racy" false (Drf.is_drf Lprog.mp_plain);
  Alcotest.(check bool) "mp_annotated is racy only on the flag poll" true
    (match Drf.find_race Lprog.mp_annotated with
    | Some r -> r.Drf.loc = 1  (* the polled flag *)
    | None -> false);
  Alcotest.(check bool) "DRF ⇒ PMC behaves like SC (locked_exchange)" true
    (Drf.sc_equivalent Lprog.locked_exchange);
  Alcotest.(check bool) "DRF ⇒ PMC behaves like SC (exclusive_fig4)" true
    (Drf.sc_equivalent Lprog.exclusive_fig4)

(* PMC is weaker than EC (Sec. IV-E): without the receiver's fence the
   acquire of X may be hoisted above the polling loop.  Under EC
   (synchronization in program order) the program still works; under PMC
   the hoisted acquire starves the publisher — a stuck state the
   enumerator finds.  With the fence, PMC has no stuck state and the
   exact outcome: the paper's "the fence of line 11 prevents the
   compiler from moving the acquire at line 13 to before the while
   loop", mechanically. *)
let test_pmc_weaker_than_ec () =
  let ec = Litmus.enumerate (module Models.Ec) Lprog.mp_annotated_nofence in
  let pmc = Litmus.enumerate (module Models.Pmc) Lprog.mp_annotated_nofence in
  Alcotest.(check (list string)) "EC: exact without the fence" [ "0 | 42" ]
    (Litmus.outcomes_list ec);
  Alcotest.(check int) "EC: no stuck states" 0 ec.Litmus.stuck_states;
  Alcotest.(check bool) "PMC: hoisted acquire deadlocks" true
    (pmc.Litmus.stuck_states > 0);
  let fenced = Litmus.enumerate (module Models.Pmc) Lprog.mp_annotated in
  Alcotest.(check int) "the line-11 fence removes the hazard" 0
    fenced.Litmus.stuck_states;
  Alcotest.(check (list string)) "and keeps the exact outcome" [ "0 | 42" ]
    (Litmus.outcomes_list fenced)

(* No model deadlocks the standard well-fenced programs. *)
let test_no_spurious_stuck () =
  List.iter
    (fun p ->
      List.iter
        (fun m ->
          let r = Litmus.enumerate m p in
          Alcotest.(check int)
            (p.Lprog.name ^ " under " ^ r.Litmus.model ^ ": no stuck")
            0 r.Litmus.stuck_states)
        Models.all)
    [ Lprog.mp_annotated; Lprog.sb; Lprog.locked_exchange;
      Lprog.exclusive_fig4 ]

(* PMC is weaker than PC: it allows everything PC allows (on the standard
   programs) and strictly more on unannotated ones. *)
let test_pmc_weaker_than_pc () =
  List.iter
    (fun p ->
      let pc = Litmus.enumerate (module Models.Pc) p in
      let pmc = Litmus.enumerate (module Models.Pmc) p in
      Alcotest.(check bool)
        ("PC outcomes within PMC on " ^ p.Lprog.name)
        true
        (Lprog.Outcome_set.subset pc.Litmus.outcomes pmc.Litmus.outcomes))
    [ Lprog.mp_plain; Lprog.sb; Lprog.coherence_1w ];
  let pc = Litmus.enumerate (module Models.Pc) Lprog.mp_plain in
  let pmc = Litmus.enumerate (module Models.Pmc) Lprog.mp_plain in
  Alcotest.(check bool) "and strictly more on MP" false
    (Lprog.Outcome_set.equal pc.Litmus.outcomes pmc.Litmus.outcomes)

(* qcheck: random uniform programs keep the strength chain. *)
let gen_uniform_prog =
  let open QCheck.Gen in
  let instr =
    frequency
      [
        (2, map2 (fun l r -> Lprog.Ld { loc = l; reg = r }) (int_range 0 1) (int_range 0 1));
        (2, map2 (fun l v -> Lprog.St { loc = l; v = Lprog.Const v }) (int_range 0 1) (int_range 1 2));
      ]
  in
  let thread = list_size (int_range 1 3) instr in
  map
    (fun threads ->
      Lprog.make ~name:"rand" ~locs:2 ~regs:2 threads)
    (list_size (int_range 2 2) thread)

(* Programs whose weak-model state space explodes are skipped rather than
   failed: the property is about outcome sets we can fully enumerate. *)
let or_skip f =
  try f () with Litmus.State_space_too_large _ -> true

let prop_chain =
  QCheck.Test.make ~count:40 ~name:"random uniform programs: SC⊆PC⊆CC⊆Slow"
    (QCheck.make gen_uniform_prog) (fun p ->
      or_skip (fun () -> Litmus.strength_chain_holds ~limit:300_000 [ p ]))

let prop_pmc_contains_sc =
  QCheck.Test.make ~count:40 ~name:"random uniform programs: SC ⊆ PMC"
    (QCheck.make gen_uniform_prog) (fun p ->
      or_skip (fun () ->
          let sc = Litmus.enumerate ~limit:300_000 (module Models.Sc) p in
          let pmc = Litmus.enumerate ~limit:300_000 (module Models.Pmc) p in
          Lprog.Outcome_set.subset sc.Litmus.outcomes pmc.Litmus.outcomes))

(* ---------------- enumeration-engine equivalences ----------------

   The BFS memoizes on hand-packed keys and can fan a level out over a
   domain pool; both are pure optimizations, so every observable result
   field must match (a) the same semantics memoized on the [Marshal]ed
   state — the previous key implementation, kept here as the reference —
   and (b) the sequential exploration, at any pool width. *)

let with_marshal_key (module M : Models.SEM) : (module Models.SEM) =
  (module struct
    include M

    let key st = Marshal.to_string st []
  end)

let result_sig (r : Litmus.result) =
  ( Lprog.Outcome_set.elements r.Litmus.outcomes,
    (r.Litmus.states_explored, r.Litmus.stuck_states) )

let result_sig_t = Alcotest.(pair (list string) (pair int int))

let each_cell f =
  List.iter
    (fun (p : Lprog.t) ->
      List.iter
        (fun ((module M : Models.SEM) as m) -> f p m M.name)
        Models.all)
    Lprog.all_standard

let test_packed_key_matches_marshal () =
  each_cell (fun p m name ->
      Alcotest.check result_sig_t
        (p.Lprog.name ^ " / " ^ name)
        (result_sig (Litmus.enumerate (with_marshal_key m) p))
        (result_sig (Litmus.enumerate m p)))

let test_parallel_bfs_matches_sequential () =
  Pmc_par.Pool.with_pool ~jobs:2 (fun pool ->
      each_cell (fun p m name ->
          Alcotest.check result_sig_t
            (p.Lprog.name ^ " / " ^ name)
            (result_sig (Litmus.enumerate m p))
            (result_sig (Litmus.enumerate ~pool m p))))

let suite =
  ( "litmus",
    [
      Alcotest.test_case "MP plain (Fig. 1)" `Quick test_mp_plain;
      Alcotest.test_case "MP + fences" `Quick test_mp_fence;
      Alcotest.test_case "MP annotated (Fig. 6)" `Quick test_mp_annotated;
      Alcotest.test_case "store buffering" `Quick test_sb;
      Alcotest.test_case "coherence, one writer" `Quick test_coherence_1w;
      Alcotest.test_case "write serialization (CC vs Slow)" `Quick
        test_write_serialization;
      Alcotest.test_case "exclusive access (Fig. 4)" `Quick
        test_exclusive_fig4;
      Alcotest.test_case "strength chain" `Slow test_strength_chain;
      Alcotest.test_case "DRF ⇒ SC" `Slow test_drf_sc;
      Alcotest.test_case "PMC weaker than PC" `Quick test_pmc_weaker_than_pc;
      Alcotest.test_case "PMC weaker than EC (hoisting)" `Quick
        test_pmc_weaker_than_ec;
      Alcotest.test_case "no spurious stuck states" `Quick
        test_no_spurious_stuck;
      Alcotest.test_case "packed keys == marshal keys (corpus)" `Slow
        test_packed_key_matches_marshal;
      Alcotest.test_case "parallel BFS == sequential (corpus)" `Slow
        test_parallel_bfs_matches_sequential;
      QCheck_alcotest.to_alcotest prop_chain;
      QCheck_alcotest.to_alcotest prop_pmc_contains_sc;
    ] )
