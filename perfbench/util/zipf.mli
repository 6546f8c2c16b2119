(** Zipfian popularity over ranks [0 .. n-1]: rank [k] has probability
    proportional to [1 / (k+1)^theta].  Drives the serve workload's
    request stream. *)

type t

val create : n:int -> theta:float -> t
(** [Invalid_argument] when [n < 1]. *)

val prob : t -> int -> float
(** The probability of rank [k]. *)

val quotas : t -> total:int -> int array
(** How many of [total] requests go to each rank: [total · prob k]
    rounded by largest remainder, so the counts sum to [total] and each
    is within 1 of its exact share. *)

val stream : t -> Rng.t -> total:int -> min_each:int -> int array
(** [total] ranks in seeded random order: every rank [min_each] times,
    plus the {!quotas} of the remaining [total - min_each · n].  The
    multiset of requested ranks is the same for every seed; only the
    order changes.  [Invalid_argument] when [total < min_each · n]. *)
