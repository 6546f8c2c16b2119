(* Operational semantics of the memory models compared in Section IV-E,
   used to enumerate complete outcome sets of litmus programs (Lprog).

   - [Sc]   Sequential Consistency [Lamport 79]: one memory, atomic steps.
   - [Pc]   Processor Consistency, implemented as its best-known
            operational instance: TSO-style per-processor FIFO store
            buffers draining into a single memory.  This realizes both GDO
            (single memory serializes each location) and GPO (the FIFO
            preserves each processor's write order).
   - [Cc]   Cache Consistency: per-location write logs; every observer
            applies each location's log in order, at its own pace.
   - [Slow] Slow Consistency [Hutto & Ahamad 90]: per-process copies;
            updates propagate per (writer, location) in order, with no
            cross-location or cross-writer guarantees.
   - [Pmc]  The paper's model: Slow reads/writes + acquire/release
            transferring the protected value (GDO) + fences inserting
            cross-location markers into the update streams (GPO) + the
            best-effort flush.  Writes issued while holding the location's
            lock stay local until release ("lazy release", Section V-A).

   Each model is a small labelled transition system; [Litmus.enumerate]
   explores it exhaustively. *)

module type SEM = sig
  val name : string

  type state

  val init : Lprog.t -> state
  val successors : Lprog.t -> state -> state list
  val is_final : Lprog.t -> state -> bool
  val outcome : Lprog.t -> state -> Lprog.outcome
  val key : state -> string
end

let clone2 (a : int array array) = Array.map Array.copy a

(* Hand-packed state keys.  [Marshal] spends most of its time on block
   headers and sharing bookkeeping; litmus states are a handful of small
   int arrays whose shapes are fixed by the program, so each semantics
   packs its state into a byte buffer directly — typically one byte per
   component, written with unsafe stores (capacity is checked once per
   int, against the 9-byte worst case).  Components of variable shape
   (store buffers, logs, streams, hoist sets) are length-prefixed, which
   keeps concatenation injective: equal keys mean structurally equal
   states.  Keys are computed once per BFS {e edge}, which makes this
   the hottest loop of enumeration — hence bytes, not [Buffer]. *)
module Key = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create hint = { buf = Bytes.create (max 64 hint); pos = 0 }

  let grow t need =
    let nb = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 nb 0 t.pos;
    t.buf <- nb

  let ensure t extra =
    if t.pos + extra > Bytes.length t.buf then grow t (t.pos + extra)

  (* [put buf pos n] writes one int at [pos] — 9 bytes must already be
     ensured — and returns the next position.  Hot loops duplicate the
     one-byte fast path inline and call this only on the escape. *)
  let put buf pos n =
    if n >= -1 && n <= 253 then begin
      Bytes.unsafe_set buf pos (Char.unsafe_chr (n + 1));
      pos + 1
    end
    else begin
      Bytes.unsafe_set buf pos '\255';
      Bytes.set_int64_ne buf (pos + 1) (Int64.of_int n);
      pos + 9
    end

  (* One int: a single byte for the common range [-1, 253] (shifted by
     one so lock-free slots pack small), escape byte 255 plus a fixed
     8-byte native-endian word otherwise.  The encoding loop is
     duplicated in [add_row] — the compiler does not inline across the
     escape branch, and one call per int is the difference between the
     packer beating [Marshal] and losing to it. *)
  let add_int t n =
    ensure t 9;
    if n >= -1 && n <= 253 then begin
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (n + 1));
      t.pos <- t.pos + 1
    end
    else begin
      Bytes.unsafe_set t.buf t.pos '\255';
      Bytes.set_int64_ne t.buf (t.pos + 1) (Int64.of_int n);
      t.pos <- t.pos + 9
    end

  (* Whole row with one capacity check and no per-int calls. *)
  let add_row t (a : int array) =
    let n = Array.length a in
    ensure t (9 * n);
    let buf = t.buf in
    let pos = ref t.pos in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get a i in
      if v >= -1 && v <= 253 then begin
        Bytes.unsafe_set buf !pos (Char.unsafe_chr (v + 1));
        incr pos
      end
      else begin
        Bytes.unsafe_set buf !pos '\255';
        Bytes.set_int64_ne buf (!pos + 1) (Int64.of_int v);
        pos := !pos + 9
      end
    done;
    t.pos <- !pos

  (* Length-prefixed row, for variable-shape components. *)
  let add_sized_row t (a : int array) =
    add_int t (Array.length a);
    add_row t a

  let add_mat t (a : int array array) =
    for i = 0 to Array.length a - 1 do
      add_row t (Array.unsafe_get a i)
    done

  let contents t = Bytes.sub_string t.buf 0 t.pos
end

(* Small sorted-int-array helpers for the hoist sets (kept sorted so a
   set has exactly one representation, which the packed keys rely on). *)
let arr_mem (x : int) (a : int array) =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) = x || go (i + 1)) in
  go 0

let arr_remove (x : int) (a : int array) =
  let out = Array.make (Array.length a - 1) 0 in
  let j = ref 0 in
  Array.iter
    (fun y ->
      if y <> x then begin
        out.(!j) <- y;
        incr j
      end)
    a;
  out

let arr_insert_sorted (x : int) (a : int array) =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  let i = ref 0 in
  while !i < n && a.(!i) < x do
    out.(!i) <- a.(!i);
    incr i
  done;
  Array.blit a !i out (!i + 1) (n - !i);
  out

let instr_at (p : Lprog.t) st_pc t =
  let th = p.Lprog.threads.(t) in
  if st_pc.(t) < Array.length th then Some th.(st_pc.(t)) else None

let all_done (p : Lprog.t) pc =
  let ok = ref true in
  Array.iteri
    (fun t th -> if pc.(t) < Array.length th then ok := false)
    p.Lprog.threads;
  !ok

(* Apply [step] to every thread index, consing successes onto [acc]
   (descending, so the result lists threads in ascending order) — the
   allocation-free form of [List.filter_map step (List.init n Fun.id)]. *)
let filter_steps n (step : int -> 'a option) (acc : 'a list) : 'a list =
  let acc = ref acc in
  for t = n - 1 downto 0 do
    match step t with Some s -> acc := s :: !acc | None -> ()
  done;
  !acc

(* ------------------------------------------------------------------ *)

module Sc : SEM = struct
  let name = "SC"

  type state = {
    pc : int array;
    regs : int array array;
    mem : int array;
    locks : int array;  (* -1 = free, otherwise holder *)
  }

  let init (p : Lprog.t) =
    {
      pc = Array.make (Lprog.n_threads p) 0;
      regs = Array.make_matrix (Lprog.n_threads p) p.regs 0;
      mem = Array.make p.locs 0;
      locks = Array.make p.locs (-1);
    }

  let step p st t : state option =
    match instr_at p st.pc t with
    | None -> None
    | Some i ->
        let adv st' = Some { st' with pc = (let a = Array.copy st'.pc in a.(t) <- a.(t) + 1; a) } in
        (match i with
        | Lprog.Ld { loc; reg } ->
            let regs = clone2 st.regs in
            regs.(t).(reg) <- st.mem.(loc);
            adv { st with regs }
        | Lprog.St { loc; v } ->
            let mem = Array.copy st.mem in
            mem.(loc) <- Lprog.eval st.regs.(t) v;
            adv { st with mem }
        | Lprog.Wait_eq { loc; v } ->
            if st.mem.(loc) = v then adv st else None
        | Lprog.Acq l ->
            if st.locks.(l) = -1 then begin
              let locks = Array.copy st.locks in
              locks.(l) <- t;
              adv { st with locks }
            end
            else None
        | Lprog.Rel l ->
            if st.locks.(l) = t then begin
              let locks = Array.copy st.locks in
              locks.(l) <- -1;
              adv { st with locks }
            end
            else failwith "SC: release without acquire"
        | Lprog.Fence | Lprog.Flush _ -> adv st)

  let successors p st = filter_steps (Lprog.n_threads p) (step p st) []

  let is_final p st = all_done p st.pc
  let outcome _p st = clone2 st.regs

  let key st =
    let b = Key.create 64 in
    Key.add_row b st.pc;
    Key.add_mat b st.regs;
    Key.add_row b st.mem;
    Key.add_row b st.locks;
    Key.contents b
end

(* ------------------------------------------------------------------ *)

module Pc : SEM = struct
  let name = "PC (TSO store buffers)"

  type state = {
    pc : int array;
    regs : int array array;
    mem : int array;
    locks : int array;
    buf : (int * int) list array;  (* per thread, oldest first *)
  }

  let init (p : Lprog.t) =
    {
      pc = Array.make (Lprog.n_threads p) 0;
      regs = Array.make_matrix (Lprog.n_threads p) p.regs 0;
      mem = Array.make p.locs 0;
      locks = Array.make p.locs (-1);
      buf = Array.make (Lprog.n_threads p) [];
    }

  (* Value of [loc] as seen by thread [t]: newest buffered store wins. *)
  let visible st t loc =
    let rec newest acc = function
      | [] -> acc
      | (l, v) :: rest -> newest (if l = loc then Some v else acc) rest
    in
    match newest None st.buf.(t) with
    | Some v -> v
    | None -> st.mem.(loc)

  let drain st t : state option =
    match st.buf.(t) with
    | [] -> None
    | (loc, v) :: rest ->
        let mem = Array.copy st.mem in
        mem.(loc) <- v;
        let buf = Array.copy st.buf in
        buf.(t) <- rest;
        Some { st with mem; buf }

  let step p st t : state option =
    match instr_at p st.pc t with
    | None -> None
    | Some i ->
        let adv st' = Some { st' with pc = (let a = Array.copy st'.pc in a.(t) <- a.(t) + 1; a) } in
        (match i with
        | Lprog.Ld { loc; reg } ->
            let regs = clone2 st.regs in
            regs.(t).(reg) <- visible st t loc;
            adv { st with regs }
        | Lprog.St { loc; v } ->
            let buf = Array.copy st.buf in
            buf.(t) <- st.buf.(t) @ [ (loc, Lprog.eval st.regs.(t) v) ];
            adv { st with buf }
        | Lprog.Wait_eq { loc; v } ->
            if visible st t loc = v then adv st else None
        | Lprog.Acq l ->
            (* an atomic RMW drains the store buffer first *)
            if st.buf.(t) = [] && st.locks.(l) = -1 then begin
              let locks = Array.copy st.locks in
              locks.(l) <- t;
              adv { st with locks }
            end
            else None
        | Lprog.Rel l ->
            if st.buf.(t) = [] then
              if st.locks.(l) = t then begin
                let locks = Array.copy st.locks in
                locks.(l) <- -1;
                adv { st with locks }
              end
              else failwith "PC: release without acquire"
            else None
        | Lprog.Fence -> if st.buf.(t) = [] then adv st else None
        | Lprog.Flush _ -> adv st)

  let successors p st =
    let n = Lprog.n_threads p in
    filter_steps n (step p st) (filter_steps n (drain st) [])

  let is_final p st =
    all_done p st.pc && Array.for_all (fun b -> b = []) st.buf

  let outcome _p st = clone2 st.regs

  let key st =
    let b = Key.create 64 in
    Key.add_row b st.pc;
    Key.add_mat b st.regs;
    Key.add_row b st.mem;
    Key.add_row b st.locks;
    Array.iter
      (fun buf ->
        Key.add_int b (List.length buf);
        List.iter
          (fun (l, v) ->
            Key.add_int b l;
            Key.add_int b v)
          buf)
      st.buf;
    Key.contents b
end

(* ------------------------------------------------------------------ *)

module Cc : SEM = struct
  let name = "CC (per-location logs)"

  type state = {
    pc : int array;
    regs : int array array;
    locks : int array;
    logs : int array array;  (* per location, oldest first, starts [|0|];
                                rows are never mutated, only replaced *)
    idx : int array array;  (* thread x location: applied prefix - 1 *)
  }

  let init (p : Lprog.t) =
    {
      pc = Array.make (Lprog.n_threads p) 0;
      regs = Array.make_matrix (Lprog.n_threads p) p.regs 0;
      locks = Array.make p.locs (-1);
      logs = Array.make p.locs [| 0 |];
      idx = Array.make_matrix (Lprog.n_threads p) p.locs 0;
    }

  let current st t loc = st.logs.(loc).(st.idx.(t).(loc))

  let apply st t loc : state option =
    if st.idx.(t).(loc) < Array.length st.logs.(loc) - 1 then begin
      let idx = clone2 st.idx in
      idx.(t).(loc) <- idx.(t).(loc) + 1;
      Some { st with idx }
    end
    else None

  let step p st t : state option =
    match instr_at p st.pc t with
    | None -> None
    | Some i ->
        let adv st' = Some { st' with pc = (let a = Array.copy st'.pc in a.(t) <- a.(t) + 1; a) } in
        (match i with
        | Lprog.Ld { loc; reg } ->
            let regs = clone2 st.regs in
            regs.(t).(reg) <- current st t loc;
            adv { st with regs }
        | Lprog.St { loc; v } ->
            let logs = Array.copy st.logs in
            logs.(loc) <-
              Array.append st.logs.(loc) [| Lprog.eval st.regs.(t) v |];
            let idx = clone2 st.idx in
            idx.(t).(loc) <- Array.length logs.(loc) - 1;
            adv { st with logs; idx }
        | Lprog.Wait_eq { loc; v } ->
            if current st t loc = v then adv st else None
        | Lprog.Acq l ->
            if st.locks.(l) = -1 then begin
              let locks = Array.copy st.locks in
              locks.(l) <- t;
              (* synchronizing on l brings the acquirer up to date on l *)
              let idx = clone2 st.idx in
              idx.(t).(l) <- Array.length st.logs.(l) - 1;
              adv { st with locks; idx }
            end
            else None
        | Lprog.Rel l ->
            if st.locks.(l) = t then begin
              let locks = Array.copy st.locks in
              locks.(l) <- -1;
              adv { st with locks }
            end
            else failwith "CC: release without acquire"
        | Lprog.Fence | Lprog.Flush _ -> adv st)

  let successors p st =
    let n = Lprog.n_threads p in
    let applies = ref [] in
    for t = n - 1 downto 0 do
      for loc = p.Lprog.locs - 1 downto 0 do
        match apply st t loc with
        | Some s -> applies := s :: !applies
        | None -> ()
      done
    done;
    filter_steps n (step p st) !applies

  let is_final p st = all_done p st.pc
  let outcome _p st = clone2 st.regs

  let key st =
    let b = Key.create 64 in
    Key.add_row b st.pc;
    Key.add_mat b st.regs;
    Key.add_row b st.locks;
    for loc = 0 to Array.length st.logs - 1 do
      Key.add_sized_row b (Array.unsafe_get st.logs loc)
    done;
    Key.add_mat b st.idx;
    Key.contents b
end

(* ------------------------------------------------------------------ *)

(* Update streams shared by Slow and PMC: one FIFO per (writer, observer)
   pair holding value updates and (for PMC) fence markers.  An update may
   be taken out of the middle of the stream as long as no earlier update to
   the same location and no earlier marker is still pending; a marker can
   only be consumed from the head.  This realizes exactly ≺P (per-location
   order preserved) and ≺F (markers). *)
module Streams = struct
  type item = Upd of int * int | Mark

  (* writer x observer, oldest first; the per-pair item arrays are never
     mutated in place, only replaced, so clones can share them *)
  type t = item array array array

  let create n = Array.init n (fun _ -> Array.make n [||])

  let clone (s : t) = Array.map Array.copy s

  (* The readiness rule (what [slow_applies] scans for, inlined there):
     a mark blocks everything behind it and is itself ready only at the
     head; an update is ready if no earlier same-location update is
     pending. *)

  let remove_nth (s : t) ~w ~q n =
    let s = clone s in
    let old = s.(w).(q) in
    let len = Array.length old in
    let fresh = Array.make (len - 1) Mark in
    Array.blit old 0 fresh 0 n;
    Array.blit old (n + 1) fresh n (len - 1 - n);
    s.(w).(q) <- fresh;
    s

  let push_all (s : t) ~w item =
    let s = clone s in
    Array.iteri
      (fun q items ->
        if q <> w then s.(w).(q) <- Array.append items [| item |])
      s.(w);
    s

  (* Packed as length-prefixed item lists (Mark = 0; Upd = 1, loc, v).
     One capacity check for the whole matrix and no per-item calls:
     with n² pairs, mostly empty, the length prefixes alone would
     otherwise dominate the key cost. *)
  let add_key (b : Key.t) (s : t) =
    let n = Array.length s in
    let bound = ref (9 * n * n) in
    for w = 0 to n - 1 do
      let row = Array.unsafe_get s w in
      for q = 0 to n - 1 do
        bound := !bound + (27 * Array.length (Array.unsafe_get row q))
      done
    done;
    Key.ensure b !bound;
    let buf = b.Key.buf in
    let pos = ref b.Key.pos in
    for w = 0 to n - 1 do
      let row = Array.unsafe_get s w in
      for q = 0 to n - 1 do
        let items = Array.unsafe_get row q in
        let len = Array.length items in
        if len <= 253 then begin
          Bytes.unsafe_set buf !pos (Char.unsafe_chr (len + 1));
          incr pos
        end
        else pos := Key.put buf !pos len;
        for i = 0 to len - 1 do
          match Array.unsafe_get items i with
          | Mark ->
              Bytes.unsafe_set buf !pos '\001';
              incr pos
          | Upd (l, v) ->
              Bytes.unsafe_set buf !pos '\002';
              incr pos;
              if l >= 0 && l <= 253 then begin
                Bytes.unsafe_set buf !pos (Char.unsafe_chr (l + 1));
                incr pos
              end
              else pos := Key.put buf !pos l;
              if v >= -1 && v <= 253 then begin
                Bytes.unsafe_set buf !pos (Char.unsafe_chr (v + 1));
                incr pos
              end
              else pos := Key.put buf !pos v
        done
      done
    done;
    b.Key.pos <- !pos
end

type slow_state = {
  s_pc : int array;
  s_regs : int array array;
  s_locks : int array;
  s_copies : int array array;  (* thread x location *)
  s_master : int array;        (* lock-protected value (PMC/EC) *)
  s_streams : Streams.t;
  s_hoisted : int array array;
      (* per thread: acquires executed early, sorted ascending; rows are
         never mutated in place, only replaced *)
}

let slow_init (p : Lprog.t) =
  {
    s_pc = Array.make (Lprog.n_threads p) 0;
    s_regs = Array.make_matrix (Lprog.n_threads p) p.regs 0;
    s_locks = Array.make p.locs (-1);
    s_copies = Array.make_matrix (Lprog.n_threads p) p.locs 0;
    s_master = Array.make p.locs 0;
    s_streams = Streams.create (Lprog.n_threads p);
    s_hoisted = Array.make (Lprog.n_threads p) [||];
  }

let slow_key (st : slow_state) =
  let b = Key.create 96 in
  Key.add_row b st.s_pc;
  Key.add_mat b st.s_regs;
  Key.add_row b st.s_locks;
  Key.add_mat b st.s_copies;
  Key.add_row b st.s_master;
  Streams.add_key b st.s_streams;
  for t = 0 to Array.length st.s_hoisted - 1 do
    Key.add_sized_row b (Array.unsafe_get st.s_hoisted t)
  done;
  Key.contents b

(* One successor per ready stream item, the [Streams.ready] scan inlined
   so the per-(w, q) candidate list is never materialized — this runs
   once per explored state for every stream pair. *)
let slow_applies ?(acc = []) (p : Lprog.t) (st : slow_state) :
    slow_state list =
  let n = Lprog.n_threads p in
  let acc = ref acc in
  for w = 0 to n - 1 do
    let row = st.s_streams.(w) in
    for q = 0 to n - 1 do
      if w <> q then begin
        let items = row.(q) in
        let len = Array.length items in
        if len > 0 then
          match items.(0) with
          | Streams.Mark ->
              let streams = Streams.remove_nth st.s_streams ~w ~q 0 in
              acc := { st with s_streams = streams } :: !acc
          | Streams.Upd _ -> (
              (* an update is ready if no earlier same-location update is
                 pending; a mark blocks everything behind it *)
              let blocked = ref [] in
              try
                for i = 0 to len - 1 do
                  match items.(i) with
                  | Streams.Mark -> raise Exit
                  | Streams.Upd (l, v) ->
                      if not (List.mem l !blocked) then begin
                        let streams = Streams.remove_nth st.s_streams ~w ~q i in
                        let copies = clone2 st.s_copies in
                        copies.(q).(l) <- v;
                        acc :=
                          { st with s_streams = streams; s_copies = copies }
                          :: !acc
                      end;
                      blocked := l :: !blocked
                done
              with Exit -> ())
      end
    done
  done;
  !acc

(* [lazy_release]: when true (PMC), writes made while holding the
   location's lock stay local until release; fences emit markers and
   acquire/release transfer the master value. *)
let slow_like_step ~fences ~sync_locks (p : Lprog.t) (st : slow_state) t :
    slow_state option =
  match instr_at p st.s_pc t with
  | None -> None
  | Some _ when arr_mem st.s_pc.(t) st.s_hoisted.(t) ->
      (* this instruction was already executed early: consume it *)
      let pc = Array.copy st.s_pc in
      let hoisted = Array.copy st.s_hoisted in
      hoisted.(t) <- arr_remove st.s_pc.(t) hoisted.(t);
      pc.(t) <- pc.(t) + 1;
      Some { st with s_pc = pc; s_hoisted = hoisted }
  | Some i ->
      let adv st' =
        let pc = Array.copy st'.s_pc in
        pc.(t) <- pc.(t) + 1;
        Some { st' with s_pc = pc }
      in
      (match i with
      | Lprog.Ld { loc; reg } ->
          let regs = clone2 st.s_regs in
          regs.(t).(reg) <- st.s_copies.(t).(loc);
          adv { st with s_regs = regs }
      | Lprog.St { loc; v } ->
          let value = Lprog.eval st.s_regs.(t) v in
          let copies = clone2 st.s_copies in
          copies.(t).(loc) <- value;
          let holds_lock = sync_locks && st.s_locks.(loc) = t in
          let streams =
            if holds_lock then st.s_streams  (* lazy release: stays local *)
            else Streams.push_all st.s_streams ~w:t (Streams.Upd (loc, value))
          in
          adv { st with s_copies = copies; s_streams = streams }
      | Lprog.Wait_eq { loc; v } ->
          if st.s_copies.(t).(loc) = v then adv st else None
      | Lprog.Acq l ->
          if st.s_locks.(l) = -1 then begin
            let locks = Array.copy st.s_locks in
            locks.(l) <- t;
            let copies = clone2 st.s_copies in
            if sync_locks then copies.(t).(l) <- st.s_master.(l);
            adv { st with s_locks = locks; s_copies = copies }
          end
          else None
      | Lprog.Rel l ->
          if st.s_locks.(l) = t then begin
            let locks = Array.copy st.s_locks in
            locks.(l) <- -1;
            let master = Array.copy st.s_master in
            if sync_locks then master.(l) <- st.s_copies.(t).(l);
            adv { st with s_locks = locks; s_master = master }
          end
          else failwith "Slow/PMC: release without acquire"
      | Lprog.Fence ->
          if fences then
            adv { st with s_streams = Streams.push_all st.s_streams ~w:t Streams.Mark }
          else adv st
      | Lprog.Flush l ->
          adv
            {
              st with
              s_streams =
                Streams.push_all st.s_streams ~w:t
                  (Streams.Upd (l, st.s_copies.(t).(l)));
            })

module Slow : SEM = struct
  let name = "Slow"

  type state = slow_state

  let init = slow_init

  let successors p st =
    let n = Lprog.n_threads p in
    filter_steps n
      (slow_like_step ~fences:false ~sync_locks:false p st)
      (slow_applies p st)

  let is_final p st = all_done p st.s_pc
  let outcome _p st = clone2 st.s_regs
  let key = slow_key
end

(* Entry-Consistency-like semantics: PMC's value-transferring locks and
   fences, but synchronization operations of one process stay in program
   order — the strengthening the paper relaxes ("our model is weaker
   [than EC] because acquire/releases of different locations by the same
   process are not ordered, unless a fence is applied"). *)
module Ec : SEM = struct
  let name = "EC"

  type state = slow_state

  let init = slow_init

  let successors p st =
    let n = Lprog.n_threads p in
    filter_steps n
      (slow_like_step ~fences:true ~sync_locks:true p st)
      (slow_applies p st)

  let is_final p st = all_done p st.s_pc
  let outcome _p st = clone2 st.s_regs
  let key = slow_key
end

(* Full PMC: EC's transitions plus acquire hoisting.  Because
   acquire/releases of different locations are unordered unless fenced,
   an implementation (compiler or out-of-order core) may perform a later
   acquire early.  A pending [Acq l] may execute ahead of program order
   when every instruction between the program counter and it is a plain
   read, write or wait on a *different* location — a fence, another
   synchronization operation, a flush or any operation on [l] blocks the
   hoist.  This is exactly the transformation Fig. 6's fence at line 11
   exists to forbid ("prevents the compiler from moving the acquire at
   line 13 to before the while loop"). *)
module Pmc : SEM = struct
  let name = "PMC"

  type state = slow_state

  let init = slow_init

  (* At most one candidate per thread: the scan forward from the program
     counter stops at the first un-hoisted synchronization operation
     either way. *)
  let hoist_candidate (p : Lprog.t) (st : slow_state) t :
      slow_state option =
    let th = p.Lprog.threads.(t) in
    (* the same-location restriction: an op on l between pc and the
       acquire blocks the hoist *)
    let blocked l upto =
      let hit = ref false in
      for k = st.s_pc.(t) to upto - 1 do
        if (not !hit) && not (arr_mem k st.s_hoisted.(t)) then
          match th.(k) with
          | Lprog.Ld { loc; _ } | Lprog.St { loc; _ }
          | Lprog.Wait_eq { loc; _ } ->
              if loc = l then hit := true
          | _ -> ()
      done;
      !hit
    in
    let rec scan j =
      if j >= Array.length th then None
      else if arr_mem j st.s_hoisted.(t) then scan (j + 1)
      else
        match th.(j) with
        | Lprog.Acq l when j > st.s_pc.(t) ->
            (* hoist if the lock is free and no in-between op touches l;
               scanning stops here either way (moving past another sync
               operation is not allowed) *)
            if st.s_locks.(l) = -1 && not (blocked l j) then begin
              let locks = Array.copy st.s_locks in
              locks.(l) <- t;
              let copies = clone2 st.s_copies in
              copies.(t).(l) <- st.s_master.(l);
              let hoisted = Array.copy st.s_hoisted in
              hoisted.(t) <- arr_insert_sorted j hoisted.(t);
              Some
                { st with s_locks = locks; s_copies = copies;
                          s_hoisted = hoisted }
            end
            else None
        | Lprog.Acq _ | Lprog.Rel _ | Lprog.Fence | Lprog.Flush _ -> None
        | Lprog.Ld _ | Lprog.St _ | Lprog.Wait_eq _ -> scan (j + 1)
    in
    scan st.s_pc.(t)

  let successors p st =
    let n = Lprog.n_threads p in
    filter_steps n
      (slow_like_step ~fences:true ~sync_locks:true p st)
      (slow_applies p st ~acc:(filter_steps n (hoist_candidate p st) []))

  let is_final p st = all_done p st.s_pc
  let outcome _p st = clone2 st.s_regs
  let key = slow_key
end

let all : (module SEM) list =
  [ (module Sc); (module Pc); (module Cc); (module Ec); (module Slow);
    (module Pmc) ]
