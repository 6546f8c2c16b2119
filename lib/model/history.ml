(* Validation of observed runs against the PMC model.

   A history is the sequence of operations one run of a program actually
   issued, in issue order, with the value each read returned.  [check]
   replays it through the Table-I state transition and verifies:

     - well-formed locking: an acquire takes a free lock; a release is
       issued by the current holder; mutual exclusion holds (Sec. IV-B);
     - every read returned a value readable at its issue point (Def. 12);
     - reads are monotonic: two ordered reads of one process never observe
       writes in opposite order (Def. 12, second clause);
     - the resulting execution stays acyclic (≺ is a partial order).

   The simulator back-ends are tested by feeding their traces through this
   checker: whatever timing a back-end produces, the observable values must
   be explainable by the model.

   [check] is incremental: it never builds the execution DAG (whose
   Table-I edge sets grow quadratically with the history) and instead
   carries sparse write frontiers across events — one count per written
   (writer, location) slot, per-location segments, one shared observer
   row plus the writers' own view — so an event costs time and memory in
   the writers of the location it touches (the bounds are stated with
   the checker below).  The original definition
   — issue every event through [Execution.execute] and answer each read
   with [Observe.readable_writes] — lives in the test suite as the
   oracle the qcheck equivalence properties compare against. *)

type event =
  | E_read of { proc : int; loc : int; value : int }
  | E_write of { proc : int; loc : int; value : int }
  | E_acquire of { proc : int; loc : int }
  | E_release of { proc : int; loc : int }
  | E_acquire_ro of { proc : int; loc : int }
  | E_release_ro of { proc : int; loc : int }
  | E_fence of { proc : int }

type violation =
  | Double_acquire of { loc : int; holder : int; proc : int }
  | Release_not_held of { loc : int; proc : int }
  | Unreadable_value of { op : Op.t; readable : int list }
  | Non_monotonic_reads of { first : Op.t; second : Op.t }
  | Cyclic_order
  | Write_outside_lock of { op : Op.t }

let pp_violation ppf = function
  | Double_acquire { loc; holder; proc } ->
      Fmt.pf ppf "p%d acquired v%d while p%d holds it" proc loc holder
  | Release_not_held { loc; proc } ->
      Fmt.pf ppf "p%d released v%d without holding it" proc loc
  | Unreadable_value { op; readable } ->
      Fmt.pf ppf "%a returned a value outside readable set {%a}" Op.pp op
        Fmt.(list ~sep:comma int)
        readable
  | Non_monotonic_reads { first; second } ->
      Fmt.pf ppf "reads went back in time: %a then %a" Op.pp first Op.pp
        second
  | Cyclic_order -> Fmt.pf ppf "execution order contains a cycle"
  | Write_outside_lock { op } ->
      Fmt.pf ppf "%a issued outside an acquire/release pair" Op.pp op

type report = { violations : violation list }

let ok report = report.violations = []

(* ------------------------------------------------------------------ *)
(* The incremental checker.                                            *)
(* ------------------------------------------------------------------ *)

(* Writes by one process to one location are totally ≺P-ordered (every
   write gains a Program edge from all earlier writes of its (proc, loc)
   bucket), so "which writes to v precede operation x" is always
   per-writer prefix-closed and can be carried as a frontier: one count
   per (writer, location) slot.  Joining two frontiers is an elementwise
   max.

   The Table-I rules draw an edge into a new operation from *every*
   previous member of a (kind, proc, loc) bucket, so the down-set of a
   new operation is exactly the union of the accumulated down-sets of the
   buckets its rules match.  The checker keeps one running frontier per
   bucket actually consumed by some rule:

     cw.(p·locs+v)   writes   (w,p,v) — into (p,v) ops
     ca.(p·locs+v)   acquires (A,p,v) — into (p,v) ops
     s.(v)           releases (R,∗,v) — into acquires of v via ≺S
     fc.(p)          fences of p — into (w|R|A) of p via ≺F
     fj.(p)          acquires/releases of p — into fences of p via ≺F

   Three facts keep the frontiers small.

   Only written slots matter: a slot (q, v) is nonzero only if q writes
   v, so a pre-pass numbers the written (writer, location) pairs, grouped
   by location, and frontiers cover those slots only.  A location nobody
   writes (lock-only, read-only) has no slots at all.

   Locations mix only through fences: every join but the ≺F ones is
   between buckets of one location, and reads and writes query only
   their own location's slots.  So a bucket of location v stores a
   segment over v's writers plus, per process p, the newest snapshot of
   fc.(p) it has absorbed (whose v-part is folded into the segment at
   absorption).  Only fc, fj and the fence snapshots span every slot,
   and they exist only for processes that fence.

   Observers differ only on their own slots: an edge kind [Local p] is
   visible only under View p, and every local edge carries the acting
   process's own operations.  The ≺ℓ edges of a read into later (p, v)
   operations add nothing a frontier lacks (the same write and acquire
   frontiers reach those operations through ≺P, and a write's own slot
   dominates what an earlier read saw of it); the ≺ℓ edges of p's reads
   and writes into p's fences add, under View p, exactly p's own writes.
   So the row of observer r is U at slots of other writers and O at
   r's own slots, where U is the frontier no local edge touched and
   O ⊒ U the one each slot's own writer sees — two entries per slot
   instead of one per observer.

   A read costs O(w² · log n) for w writers of its location, a write,
   acquire or release O(w), plus O(procs) for the fence-snapshot vector
   once fences exist, and a fence O(procs · slots).  Live state is the
   (proc, loc) index, O(w) per touched bucket and per write, and one
   slots-wide row per process that fences and per fence snapshot still
   referenced.

   The initial operation of each location needs no slot: it precedes
   every read and write of its location under every relation and nothing
   precedes it, so the query sites special-case it instead. *)

(* A frontier of fc.(p) as of one of p's fences, over every slot. *)
type snap = {
  ep : int;  (* creation order; 0 only for [snap0] *)
  row : int array;  (* U over all slots, then O over all slots *)
  seen : snap array;  (* per process, the newest snapshot folded in *)
}

let snap0 = { ep = 0; row = [||]; seen = [||] }

type bucket = {
  seg : int array;
      (* U over the location's writers, then O; for [fj], over all slots *)
  mutable fcs : snap array;
      (* per process, the newest fence snapshot absorbed; [||] if none *)
}

let no_bucket = { seg = [||]; fcs = [||] }

type wrec = {
  w_id : int;  (* operation id, for violation reports *)
  w_proc : int;
  w_k : int;  (* the writer's rank among its location's writers *)
  w_index : int;  (* 1-based rank in the (proc, loc) write chain *)
  w_value : int;
  w_before : int array;
      (* the write's (p, v) frontier just before it: per writer of v, the
         number of its writes strictly before this one, U then O *)
}

(* Tiny growable array (OCaml 5.1 has no Dynarray). *)
type 'a vec = { mutable arr : 'a array; mutable len : int }

let vec_make () = { arr = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.arr then begin
    let arr' = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.arr 0 arr' 0 v.len;
    v.arr <- arr'
  end;
  v.arr.(v.len) <- x;
  v.len <- v.len + 1

(* What the previous read of a (proc, loc) pair observed. *)
type prev_obs = P_none | P_init | P_write of wrec

let check ?(require_locked_writes = false) ?(init = fun _ -> 0) ~procs ~locs
    (events : event list) : report =
  if procs < 1 then invalid_arg "History.check: bad process count";
  if locs < 1 then invalid_arg "History.check: bad location count";
  let pl = procs * locs in
  (* pre-pass: the written (writer, location) pairs and the processes
     that fence; out-of-range events are left to the main pass to reject *)
  let kslot = Array.make pl (-1) in
  let fences = Array.make procs false in
  List.iter
    (function
      | E_write { proc; loc; _ }
        when proc >= 0 && proc < procs && loc >= 0 && loc < locs ->
          kslot.((proc * locs) + loc) <- 0
      | E_fence { proc } when proc >= 0 && proc < procs ->
          fences.(proc) <- true
      | _ -> ())
    events;
  (* slots grouped by location: v's writers are slots base.(v) ..
     base.(v)+width.(v)-1, in process order; kslot.(p·locs+v) becomes
     p's rank among them, or stays -1 *)
  let width = Array.make locs 0 and base = Array.make locs 0 in
  let nslots = ref 0 in
  for v = 0 to locs - 1 do
    base.(v) <- !nslots;
    for p = 0 to procs - 1 do
      let pv = (p * locs) + v in
      if kslot.(pv) >= 0 then begin
        kslot.(pv) <- width.(v);
        width.(v) <- width.(v) + 1
      end
    done;
    nslots := !nslots + width.(v)
  done;
  let nslots = !nslots in
  (* each process's own slots, for the ≺ℓ part of its fences *)
  let own_slots =
    Array.init procs (fun p ->
        if not fences.(p) then [||]
        else
          let acc = ref [] in
          for v = locs - 1 downto 0 do
            let k = kslot.((p * locs) + v) in
            if k >= 0 then acc := (base.(v) + k) :: !acc
          done;
          Array.of_list !acc)
  in
  (* frontier state; buckets are allocated on first touch so untouched
     pairs cost one pointer *)
  let cw = Array.make pl no_bucket in
  let ca = Array.make pl no_bucket in
  let s = Array.make locs no_bucket in
  let fc = Array.make procs snap0 in
  let fj =
    Array.init procs (fun p ->
        if fences.(p) then { seg = Array.make (2 * nslots) 0; fcs = [||] }
        else no_bucket)
  in
  let epoch = ref 0 in
  let bucket tbl i v =
    let b = tbl.(i) in
    if b != no_bucket then b
    else begin
      let b = { seg = Array.make (2 * width.(v)) 0; fcs = [||] } in
      tbl.(i) <- b;
      b
    end
  in
  let join_fcs (dst : bucket) (src : snap array) =
    if Array.length src > 0 then
      if Array.length dst.fcs = 0 then dst.fcs <- Array.copy src
      else
        let d = dst.fcs in
        for p = 0 to procs - 1 do
          if src.(p).ep > d.(p).ep then d.(p) <- src.(p)
        done
  in
  (* dst ⊔= src, two buckets of one location *)
  let join (dst : bucket) (src : bucket) =
    if src != no_bucket then begin
      let a = dst.seg and b = src.seg in
      for i = 0 to Array.length a - 1 do
        if b.(i) > a.(i) then a.(i) <- b.(i)
      done;
      join_fcs dst src.fcs
    end
  in
  (* dst ⊔= fc.(p), dst a bucket of location v *)
  let absorb (dst : bucket) p v =
    let f = fc.(p) in
    if f != snap0 && (Array.length dst.fcs = 0 || dst.fcs.(p) != f) then begin
      let w = width.(v) and b = base.(v) in
      let a = dst.seg and row = f.row in
      for k = 0 to w - 1 do
        if row.(b + k) > a.(k) then a.(k) <- row.(b + k);
        let o = row.(nslots + b + k) in
        if o > a.(w + k) then a.(w + k) <- o
      done;
      if Array.length dst.fcs = 0 then dst.fcs <- Array.make procs snap0;
      dst.fcs.(p) <- f
    end
  in
  (* fj.(p) ⊔= src, a bucket of location v; only fences read fj *)
  let to_fence p v (src : bucket) =
    if fences.(p) && src != no_bucket then begin
      let dst = fj.(p) in
      let row = dst.seg and w = width.(v) and b = base.(v) in
      let a = src.seg in
      for k = 0 to w - 1 do
        if a.(k) > row.(b + k) then row.(b + k) <- a.(k);
        if a.(w + k) > row.(nslots + b + k) then
          row.(nslots + b + k) <- a.(w + k)
      done;
      join_fcs dst src.fcs
    end
  in
  (* write registries: per slot chain and per location, issue order *)
  let chains = Array.init nslots (fun _ -> vec_make ()) in
  let by_loc = Array.init locs (fun _ -> vec_make ()) in
  (* lock and monotonicity bookkeeping, as in the reference *)
  let holder = Array.make locs None in
  let writes_seen = Array.make pl P_none in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let next_id = ref locs in
  let check_bounds proc loc =
    if proc < 0 || proc >= procs then invalid_arg "History.check: bad process";
    if loc < 0 || loc >= locs then invalid_arg "History.check: bad location"
  in

  let do_read proc loc value id =
    let pv = (proc * locs) + loc in
    let w = width.(loc) and b0 = base.(loc) in
    let cw_pv = cw.(pv) and ca_pv = ca.(pv) in
    (* where View proc reads writer k's count in a segment: O at its own
       slot, U elsewhere *)
    let own = kslot.(pv) in
    let col k = if k = own then w + k else k in
    (* before-writes frontier of this read at its own location: per
       writer k, how many of its writes precede the read under View proc
       (segments of never-touched buckets are empty) *)
    let frontier =
      Array.init w (fun k ->
          let c = col k in
          let a = if cw_pv == no_bucket then 0 else cw_pv.seg.(c) in
          let b = if ca_pv == no_bucket then 0 else ca_pv.seg.(c) in
          max a b)
    in
    let lw_is_init = Array.for_all (fun n -> n = 0) frontier in
    let lw_last k = chains.(b0 + k).arr.(frontier.(k) - 1) in
    (* last writes: the newest write of each non-empty per-writer prefix,
       minus the dominated ones (k's is dominated iff another writer's
       newest already counts it among its own befores) *)
    let is_lw k =
      frontier.(k) > 0
      &&
      let dominated = ref false in
      let c = col k in
      for k' = 0 to w - 1 do
        if (not !dominated) && k' <> k && frontier.(k') > 0 then
          if (lw_last k').w_before.(c) >= frontier.(k) then dominated := true
      done;
      not !dominated
    in
    let lw = Array.init w is_lw in
    (* b is readable iff some last write precedes-or-equals it (Def. 12);
       when the only last write is the initial operation, every write
       issued so far is readable.  Within one writer chain the count
       [w_before.(col k)] is monotone (the bucket frontier it was
       snapshotted from only grows), so for each last write k the
       readable part of each chain is a suffix, found by binary search;
       the union over k is the suffix from the minimum start.  A last
       write's own chain is special: the element at index
       [frontier.(k)-1] is the last write itself, readable by identity,
       and contiguous with its chain's suffix.  After this, "is b
       readable" is one index comparison. *)
    let starts = Array.make w max_int in
    if lw_is_init then Array.fill starts 0 w 0
    else
      for k' = 0 to w - 1 do
        let c = chains.(b0 + k') in
        let s = ref max_int in
        for k = 0 to w - 1 do
          if lw.(k) then
            if k = k' then s := min !s (frontier.(k') - 1)
            else begin
              let tgt = frontier.(k) and off = col k in
              let lo = ref 0 and hi = ref c.len in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if c.arr.(mid).w_before.(off) >= tgt then hi := mid
                else lo := mid + 1
              done;
              s := min !s !lo
            end
        done;
        starts.(k') <- !s
      done;
    let readable (b : wrec) = b.w_index - 1 >= starts.(b.w_k) in
    let ws = by_loc.(loc) in
    let init_candidate = lw_is_init && init loc = value in
    (* oldest readable write carrying the observed value: per chain the
       first match at or after the readable start (ids ascend within a
       chain), minimized across chains; chains are abandoned as soon as
       they pass the best id found so far *)
    let oldest = ref None in
    let best_id = ref max_int in
    for k' = 0 to w - 1 do
      let c = chains.(b0 + k') in
      let i = ref starts.(k') in
      let scanning = ref true in
      while !scanning && !i < c.len do
        let b = c.arr.(!i) in
        if b.w_id >= !best_id then scanning := false
        else if b.w_value = value then begin
          oldest := Some b;
          best_id := b.w_id;
          scanning := false
        end
        else incr i
      done
    done;
    if (not init_candidate) && !oldest = None then begin
      (* unreadable: collect the full readable value set for the report *)
      let values = ref (if lw_is_init then [ init loc ] else []) in
      for k' = 0 to w - 1 do
        let c = chains.(b0 + k') in
        for j = starts.(k') to c.len - 1 do
          values := c.arr.(j).w_value :: !values
        done
      done;
      add
        (Unreadable_value
           {
             op = { id; kind = Op.Read; proc; loc; value };
             readable = List.sort_uniq compare !values;
           })
    end
    else begin
      (match writes_seen.(pv) with
      | P_write pw ->
          (* violation iff every candidate is strictly View-proc-before
             the previously observed write.  The initial operation, when
             a candidate, precedes every real write, so it cannot break
             the for-all; scan real candidates newest-first so the common
             case (the newest one is not before prev) exits early. *)
          let all_before = ref true in
          let j = ref (ws.len - 1) in
          while !all_before && !j >= 0 do
            let b = ws.arr.(!j) in
            if b.w_value = value && readable b then
              if not (pw.w_before.(col b.w_k) >= b.w_index) then
                all_before := false;
            decr j
          done;
          if !all_before then
            add
              (Non_monotonic_reads
                 {
                   first =
                     {
                       id = pw.w_id;
                       kind = Op.Write;
                       proc = pw.w_proc;
                       loc;
                       value = pw.w_value;
                     };
                   second = { id; kind = Op.Read; proc; loc; value };
                 })
      | P_init | P_none -> ());
      (* remember the oldest candidate conservatively *)
      match (init_candidate, !oldest) with
      | true, _ -> writes_seen.(pv) <- P_init
      | false, Some b -> writes_seen.(pv) <- P_write b
      | false, None -> ()
    end
  in

  let do_write proc loc value id =
    if require_locked_writes && holder.(loc) <> Some proc then
      add
        (Write_outside_lock
           { op = { id = -1; kind = Op.Write; proc; loc; value } });
    let pv = (proc * locs) + loc in
    let b = bucket cw pv loc in
    join b ca.(pv);
    absorb b proc loc;
    let k = kslot.(pv) in
    let chain = chains.(base.(loc) + k) in
    let idx = chain.len + 1 in
    let w =
      { w_id = id; w_proc = proc; w_k = k; w_index = idx; w_value = value;
        w_before = Array.copy b.seg }
    in
    vec_push chain w;
    vec_push by_loc.(loc) w;
    b.seg.(k) <- idx;
    b.seg.(width.(loc) + k) <- idx
  in

  let do_acquire ~ro proc loc =
    if not ro then begin
      (match holder.(loc) with
      | Some h -> add (Double_acquire { loc; holder = h; proc })
      | None -> ());
      holder.(loc) <- Some proc
    end;
    let pv = (proc * locs) + loc in
    let b = bucket ca pv loc in
    join b s.(loc);
    absorb b proc loc;
    to_fence proc loc b
  in

  let do_release ~ro proc loc =
    if not ro then (
      match holder.(loc) with
      | Some h when h = proc -> holder.(loc) <- None
      | _ -> add (Release_not_held { loc; proc }));
    let pv = (proc * locs) + loc in
    let sv = bucket s loc loc in
    join sv cw.(pv);
    join sv ca.(pv);
    absorb sv proc loc;
    (* fc.(proc) itself needs no forwarding: the fence it would reach
       already contains it *)
    to_fence proc loc cw.(pv);
    to_fence proc loc ca.(pv)
  in

  (* fc.(p) ⊔= fj.(p), and under View p every write of p so far; a new
     snapshot only when the frontier actually grew *)
  let do_fence p =
    let old = fc.(p) and j = fj.(p) in
    let row =
      if old == snap0 then Array.make (2 * nslots) 0 else Array.copy old.row
    in
    let seen =
      if old == snap0 then Array.make procs snap0 else Array.copy old.seen
    in
    let grew = ref false in
    let raise_to (src : int array) =
      for i = 0 to (2 * nslots) - 1 do
        if src.(i) > row.(i) then begin
          row.(i) <- src.(i);
          grew := true
        end
      done
    in
    raise_to j.seg;
    (* other processes' snapshots, newest first: a newer one usually
       includes the older ones, which its [seen] then lets us skip *)
    let newer = ref [] in
    Array.iteri
      (fun q sn ->
        if q <> p && sn.ep > seen.(q).ep then newer := (q, sn) :: !newer)
      j.fcs;
    List.iter
      (fun (q, sn) ->
        if sn.ep > seen.(q).ep then begin
          raise_to sn.row;
          for q' = 0 to procs - 1 do
            if sn.seen.(q').ep > seen.(q').ep then seen.(q') <- sn.seen.(q')
          done;
          seen.(q) <- sn
        end)
      (List.sort (fun (_, a) (_, b) -> compare b.ep a.ep) !newer);
    Array.iter
      (fun sl ->
        let n = chains.(sl).len in
        if n > row.(nslots + sl) then begin
          row.(nslots + sl) <- n;
          grew := true
        end)
      own_slots.(p);
    if !grew then begin
      incr epoch;
      fc.(p) <- { ep = !epoch; row; seen }
    end
  in

  List.iter
    (fun ev ->
      let id = !next_id in
      incr next_id;
      match ev with
      | E_fence { proc } ->
          check_bounds proc 0;
          do_fence proc
      | E_acquire { proc; loc } ->
          check_bounds proc loc;
          do_acquire ~ro:false proc loc
      | E_acquire_ro { proc; loc } ->
          check_bounds proc loc;
          do_acquire ~ro:true proc loc
      | E_release { proc; loc } ->
          check_bounds proc loc;
          do_release ~ro:false proc loc
      | E_release_ro { proc; loc } ->
          check_bounds proc loc;
          do_release ~ro:true proc loc
      | E_write { proc; loc; value } ->
          check_bounds proc loc;
          do_write proc loc value id
      | E_read { proc; loc; value } ->
          check_bounds proc loc;
          do_read proc loc value id)
    events;
  (* every edge the Table-I rules create points from a lower id to a
     higher one, so ≺ is acyclic by construction — the reference's final
     [Order.is_acyclic] pass can never fire and is not replayed here *)
  { violations = List.rev !violations }
