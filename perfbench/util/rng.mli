(** Seeded splitmix64 stream: every input the benchmark generates comes
    from one of these, keyed by the [--seed] argument. *)

type t

val create : int -> t
val next : t -> int64

val int : t -> int -> int
(** Uniform in [\[0, bound)]; [Invalid_argument] when [bound <= 0]. *)

val derive : seed:int -> string -> int
(** [derive ~seed tag] is a non-negative seed for the input stream named
    [tag]; distinct tags give independent streams. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
