(** How fast the host runs at the moment: a fixed piece of work, timed
    beside the benchmark's operations.

    On a shared host the speed per instruction drifts with what other
    tenants run (the same simulated case took 300 ms in some spells and
    550 ms in others, CPU time equal to wall time).  The kernel is
    allocation-heavy OCaml code, like the library's hot paths, so it
    slows with them.  It is stdlib code only, and it times no garbage
    collection (each timed chunk starts on an empty minor heap and fits
    in it), so neither the library's code nor the heap it leaves behind
    moves it. *)

type t

val create : unit -> t

val sample : t -> unit
(** Run the kernel once (~6 ms) and keep its time.  Call it between
    timed operations, never inside one: it empties the minor heap. *)

val count : t -> int
(** How many samples have been taken. *)

val samples : t -> float array
(** The kept times, in seconds, oldest first. *)

val reference_s : float
(** The kernel's time on the reference host. *)

val scale : t -> elasticity:float -> float
(** [(reference_s /. median (samples t)) ** elasticity]; [1.0] without
    samples.  A time multiplied by it reads as on the reference host.
    [elasticity] is how much the timed work slows, in log terms, per
    unit of log slowdown of the kernel: 1 for work like the kernel's,
    less for work that spends part of its time in the operating
    system. *)

val scale_at : float array -> int -> elasticity:float -> float
(** [scale_at (samples t) i ~elasticity] is the scale for an operation
    that started when [i] samples had been taken: as {!scale}, but over
    the geometric mean of the last sample before the operation and the
    first after it, so that it follows the host's speed from one
    operation to the next.  Indices are clamped to the samples taken;
    [1.0] without samples. *)
