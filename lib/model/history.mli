(** Validation of observed runs against the PMC model.

    A history is the operation sequence one run actually issued, with the
    value each read returned.  [check] replays it through the Table-I
    transition and reports everything the model forbids.  The simulator
    back-ends are validated by feeding their traces through this
    checker. *)

type event =
  | E_read of { proc : int; loc : int; value : int }
  | E_write of { proc : int; loc : int; value : int }
  | E_acquire of { proc : int; loc : int }
  | E_release of { proc : int; loc : int }
  | E_acquire_ro of { proc : int; loc : int }
      (** Read-only entry: gains the Table-I ≺S acquire edges but takes no
          lock — any number may be held concurrently. *)
  | E_release_ro of { proc : int; loc : int }
      (** Read-only exit: later acquires are ≺S-after it (writers wait for
          readers); no holder bookkeeping. *)
  | E_fence of { proc : int }

type violation =
  | Double_acquire of { loc : int; holder : int; proc : int }
  | Release_not_held of { loc : int; proc : int }
  | Unreadable_value of { op : Op.t; readable : int list }
  | Non_monotonic_reads of { first : Op.t; second : Op.t }
  | Cyclic_order
  | Write_outside_lock of { op : Op.t }

val pp_violation : Format.formatter -> violation -> unit

type report = { violations : violation list }
(** What {!check} found, in event order. *)

val ok : report -> bool

val check :
  ?require_locked_writes:bool -> ?init:(int -> int) -> procs:int ->
  locs:int -> event list -> report
(** Replay [events] (in observed issue order) and verify: lock
    well-formedness and mutual exclusion, every read value readable at its
    issue point (Def. 12), read monotonicity, and acyclicity of ≺.  With
    [require_locked_writes], also the discipline that every write happens
    under the location's lock.  [init] gives each location's initial
    value (default 0); it behaves as a write ordered before every
    operation, so reads with no ordered-before write may return it.

    This is the incremental checker: it never materializes the execution
    DAG (whose Table-I edge sets grow quadratically with the history) and
    instead carries write frontiers across events, one count per written
    (writer, location) slot.  Frontiers of a location's buckets span only
    that location's writers (other locations enter only through fence
    snapshots), and observers share one row apart from their own slots.
    A read costs O(w² · log n) and any other non-fence event O(w + procs),
    w being the number of distinct writers of the event's location; a
    fence costs O(procs · slots).  Memory is O(procs · locs) for the
    index, O(w) per touched (process, location) bucket and per write,
    and O(slots) per fencing process and per fence snapshot still
    referenced.  It reports exactly the violations, in exactly the order,
    that issuing every event through {!Execution} and answering every
    read with {!Observe.readable_writes} would. *)
