(** 64-bit FNV-1a, the digest the determinism self-check folds exact
    outputs into. *)

val offset : int64
(** The digest of the empty string. *)

val add : int64 -> string -> int64
(** Fold more bytes into a digest. *)

val string : string -> int64
val hex : int64 -> string
